package mogul

import (
	"fmt"
	"io"

	"mogul/internal/binio"
)

// The mutation delta log: the replication transport of the dist
// subsystem, kept by the shared engine lifecycle (engine.go) and so by
// every single-node engine alike.
//
// Every visible mutation — Insert, Delete, Compact — already bumps the
// engine's monotonic version counter. The delta log records, for each
// bump, WHAT changed: the inserted vector, the deleted id, or a
// compaction marker. Because every engine's build pipeline is
// deterministic for a fixed seed (the Compact ≡ Build property), a
// second engine that starts from the same state and replays the log
// entries in order reconstructs a bit-identical one — including the id
// renumbering a post-deletion compaction performs. That makes the pair
// (snapshot, EntriesSince(cursor)) a complete replication protocol:
// followers tail the log keyed by the version cursor, and convergence
// is "follower.Version() == primary.Version()".
//
// Entries are tiny (a Delete is two words, an Insert one vector), so
// the log's memory cost tracks the mutation rate, not the index size.
// TruncateEntries lets an owner drop entries its followers have
// acknowledged; a follower whose cursor predates the retained window
// must bootstrap from a fresh snapshot (EntriesSince reports this
// explicitly rather than silently returning a gap).

// LogOp identifies one kind of logged mutation.
type LogOp uint8

const (
	// OpInsert records an Insert: ID is the id the insert returned,
	// Vector the inserted point.
	OpInsert LogOp = iota + 1
	// OpDelete records a Delete of item ID.
	OpDelete
	// OpCompact records a Compact that folded the delta into a fresh
	// base (no-op compactions log nothing, exactly as they bump no
	// version).
	OpCompact
)

// String names the op for logs and errors.
func (op LogOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpCompact:
		return "compact"
	}
	return fmt.Sprintf("LogOp(%d)", uint8(op))
}

// LogEntry is one logged mutation. Version is the engine version the
// mutation produced (the value Version() returned once the mutation
// was visible), so a follower that has applied entries through version
// V resumes with EntriesSince(V).
type LogEntry struct {
	Version uint64
	Op      LogOp
	// ID is the inserted item's assigned id (OpInsert) or the deleted
	// id (OpDelete); 0 for OpCompact.
	ID int
	// Vector is the inserted point (OpInsert only). It aliases engine
	// storage; treat as read-only.
	Vector Vector
}

// bump makes one mutation visible: it advances the version and records
// the mutation at the new value, so cursor arithmetic is simply "entries
// with Version > cursor". Callers hold mu for writing — any search that
// can see the mutation also sees the new version (the stamp result
// caches invalidate on), and any follower that reads the entry reads the
// version it produced.
func (e *engine[S]) bump(op LogOp, id int, v Vector) {
	ver := e.version.Add(1)
	if e.logStart == 0 {
		e.logStart = ver - 1
	}
	e.log = append(e.log, LogEntry{Version: ver, Op: op, ID: id, Vector: v})
}

// logAnchor returns the version the retained log is anchored at:
// entries cover (anchor, Version()]. Callers hold mu in any mode.
func (e *engine[S]) logAnchor() uint64 {
	if e.logStart == 0 {
		// No entry was ever logged and nothing truncated: the log is
		// anchored at the initial version (1 for a fresh build or load).
		return e.version.Load()
	}
	return e.logStart
}

// EntriesSince returns a copy of the logged mutations with Version >
// since (a Version() reading), oldest first — the tail a replication
// follower whose cursor is at `since` must apply to catch up. The second
// return reports whether the log still reaches back to `since`: false
// means entries past the cursor have been truncated (or the engine was
// loaded from a snapshot taken after them) and the follower must
// bootstrap from a fresh snapshot instead.
func (e *engine[S]) EntriesSince(since uint64) ([]LogEntry, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if since < e.logAnchor() {
		return nil, false
	}
	// Binary search would do, but the tail a follower asks for is
	// almost always the whole suffix after its cursor; a reverse scan
	// finds the cut in O(len(tail)).
	cut := len(e.log)
	for cut > 0 && e.log[cut-1].Version > since {
		cut--
	}
	if cut == len(e.log) {
		return nil, true
	}
	return append([]LogEntry(nil), e.log[cut:]...), true
}

// TruncateEntries drops logged mutations with Version <= upTo,
// bounding the log's memory to the un-acknowledged tail. After the
// call, EntriesSince(v) with v < upTo reports the log as truncated.
func (e *engine[S]) TruncateEntries(upTo uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if upTo <= e.logAnchor() {
		return
	}
	if v := e.version.Load(); upTo > v {
		upTo = v
	}
	keep := len(e.log)
	for keep > 0 && e.log[keep-1].Version > upTo {
		keep--
	}
	e.log = append(e.log[:0:0], e.log[keep:]...)
	e.logStart = upTo
}

// LogLen returns the number of retained delta-log entries.
func (e *engine[S]) LogLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.log)
}

// Wire codec: the framing the dist subsystem ships log tails in. Same
// idioms as the index container (docs/FORMAT.md): little-endian magic
// + format version, length-prefixed payload, trailing CRC-32, and
// errors-never-panics on arbitrary input.

// logMagic brands a serialized log tail.
const logMagic = "MOGULLOG"

// logFormatVersion is the wire version of the entry stream.
const logFormatVersion = 1

// maxLogVectorDim bounds a decoded vector length, so a corrupt count
// fails fast instead of attempting a huge allocation.
const maxLogVectorDim = 1 << 24

// WriteLogEntries serializes a log tail in the wire format the dist
// subsystem ships replication feeds in.
func WriteLogEntries(w io.Writer, entries []LogEntry) error {
	bw := binio.NewWriter(w)
	bw.Raw([]byte(logMagic))
	bw.Uint32(logFormatVersion)
	bw.Uint64(uint64(len(entries)))
	for _, e := range entries {
		bw.Uint64(e.Version)
		bw.Uint32(uint32(e.Op))
		bw.Int(e.ID)
		if e.Op == OpInsert {
			bw.Floats(e.Vector)
		} else {
			bw.Floats(nil)
		}
	}
	bw.Uint32(bw.Sum32())
	return bw.Err()
}

// ReadLogEntries decodes a log tail written by WriteLogEntries,
// validating framing, op codes, version monotonicity, and the trailing
// checksum; malformed input yields an error, never a panic.
func ReadLogEntries(r io.Reader) ([]LogEntry, error) {
	br := binio.NewReader(r)
	var magic [8]byte
	br.Raw(magic[:])
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("mogul: reading log header: %w", err)
	}
	if string(magic[:]) != logMagic {
		return nil, fmt.Errorf("mogul: not a mogul delta log (magic %q)", magic[:])
	}
	if v := br.Uint32(); v != logFormatVersion {
		return nil, fmt.Errorf("mogul: delta log format version %d, this build reads %d", v, logFormatVersion)
	}
	num := br.Uint64()
	if num > binio.MaxCount {
		return nil, fmt.Errorf("mogul: corrupt delta log: %d entries", num)
	}
	entries := make([]LogEntry, 0, min(num, 1<<16))
	var prev uint64
	for i := uint64(0); i < num; i++ {
		e := LogEntry{
			Version: br.Uint64(),
			Op:      LogOp(br.Uint32()),
			ID:      br.Int(),
		}
		vec := br.Floats(maxLogVectorDim)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("mogul: decoding log entry %d: %w", i, err)
		}
		switch e.Op {
		case OpInsert:
			if len(vec) == 0 {
				return nil, fmt.Errorf("mogul: log entry %d: insert without a vector", i)
			}
			e.Vector = vec
		case OpDelete, OpCompact:
			if len(vec) != 0 {
				return nil, fmt.Errorf("mogul: log entry %d: %s op carries a vector", i, e.Op)
			}
		default:
			return nil, fmt.Errorf("mogul: log entry %d: unknown op %d", i, uint8(e.Op))
		}
		if e.Version <= prev {
			return nil, fmt.Errorf("mogul: log entry %d: version %d not after %d", i, e.Version, prev)
		}
		if e.ID < 0 {
			return nil, fmt.Errorf("mogul: log entry %d: negative id %d", i, e.ID)
		}
		prev = e.Version
		entries = append(entries, e)
	}
	sum := br.Sum32()
	if crc := br.Uint32(); br.Err() == nil && crc != sum {
		return nil, fmt.Errorf("mogul: delta log checksum mismatch: stored %08x, computed %08x", crc, sum)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("mogul: reading delta log trailer: %w", err)
	}
	return entries, nil
}
