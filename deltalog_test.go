package mogul

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// The delta log is the shared lifecycle's (engine.go), so its contract
// is checked once per engine kind.
func logTestEngines(t *testing.T, run func(t *testing.T, e lifecycleEngine, ds *Dataset)) {
	ds := NewMixture(MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.25, Separation: 2, Seed: 7})
	for _, row := range lifecycleRows() {
		if row.prec != F64 {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			e, err := row.build(ds.Points, Options{GraphK: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			run(t, e, ds)
		})
	}
}

func TestDeltaLogRecordsMutations(t *testing.T) {
	logTestEngines(t, func(t *testing.T, ix lifecycleEngine, ds *Dataset) {
		if entries, ok := ix.EntriesSince(1); !ok || len(entries) != 0 {
			t.Fatalf("fresh index: entries=%v ok=%v", entries, ok)
		}
		if _, ok := ix.EntriesSince(0); ok {
			t.Fatal("version 0 predates the log anchor; want truncated")
		}

		id, err := ix.Insert(ds.Points[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(3); err != nil {
			t.Fatal(err)
		}
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		entries, ok := ix.EntriesSince(1)
		if !ok {
			t.Fatal("log reported truncated")
		}
		wantOps := []LogOp{OpInsert, OpDelete, OpCompact}
		if len(entries) != len(wantOps) {
			t.Fatalf("got %d entries, want %d", len(entries), len(wantOps))
		}
		for i, e := range entries {
			if e.Op != wantOps[i] {
				t.Fatalf("entry %d: op %s, want %s", i, e.Op, wantOps[i])
			}
			if e.Version != uint64(i)+2 {
				t.Fatalf("entry %d: version %d, want %d", i, e.Version, i+2)
			}
		}
		if entries[0].ID != id {
			t.Fatalf("insert entry id %d, want %d", entries[0].ID, id)
		}
		if !reflect.DeepEqual([]float64(entries[0].Vector), []float64(ds.Points[0])) {
			t.Fatal("insert entry vector differs from the inserted point")
		}
		if entries[1].ID != 3 {
			t.Fatalf("delete entry id %d, want 3", entries[1].ID)
		}
		// A no-op Compact neither bumps the version nor logs an entry.
		before := ix.Version()
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		if ix.Version() != before || ix.LogLen() != 3 {
			t.Fatalf("no-op compact: version %d->%d, log %d", before, ix.Version(), ix.LogLen())
		}
		// Cursor arithmetic: a follower at version 3 gets only the tail.
		tail, ok := ix.EntriesSince(3)
		if !ok || len(tail) != 1 || tail[0].Op != OpCompact {
			t.Fatalf("tail after 3: %v ok=%v", tail, ok)
		}
	})
}

func TestDeltaLogTruncation(t *testing.T) {
	logTestEngines(t, func(t *testing.T, ix lifecycleEngine, ds *Dataset) {
		for i := 0; i < 4; i++ {
			if _, err := ix.Insert(ds.Points[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Versions now 2..5. Truncate through 3.
		ix.TruncateEntries(3)
		if ix.LogLen() != 2 {
			t.Fatalf("log len %d after truncation, want 2", ix.LogLen())
		}
		if _, ok := ix.EntriesSince(2); ok {
			t.Fatal("cursor 2 predates the truncation point; want resync signal")
		}
		tail, ok := ix.EntriesSince(3)
		if !ok || len(tail) != 2 || tail[0].Version != 4 {
			t.Fatalf("tail after 3: %v ok=%v", tail, ok)
		}
		// Truncating beyond the head clamps to the current version.
		ix.TruncateEntries(99)
		if ix.LogLen() != 0 {
			t.Fatalf("log len %d after full truncation", ix.LogLen())
		}
		if tail, ok := ix.EntriesSince(ix.Version()); !ok || len(tail) != 0 {
			t.Fatalf("cursor at head after truncation: %v ok=%v", tail, ok)
		}
		// New mutations log against the new anchor.
		if _, err := ix.Insert(ds.Points[5]); err != nil {
			t.Fatal(err)
		}
		if tail, ok := ix.EntriesSince(5); !ok || len(tail) != 1 {
			t.Fatalf("fresh tail: %v ok=%v", tail, ok)
		}
	})
}

// logRoundTripTails are the tails the codec tests (and the fuzz seeds)
// share: empty, one entry, and fifty random ones of every op.
func logRoundTripTails() [][]LogEntry {
	rng := rand.New(rand.NewSource(11))
	var entries []LogEntry
	v := uint64(1)
	for i := 0; i < 50; i++ {
		v++
		switch rng.Intn(3) {
		case 0:
			vec := make([]float64, 1+rng.Intn(8))
			for j := range vec {
				vec[j] = rng.NormFloat64()
			}
			entries = append(entries, LogEntry{Version: v, Op: OpInsert, ID: rng.Intn(1000), Vector: vec})
		case 1:
			entries = append(entries, LogEntry{Version: v, Op: OpDelete, ID: rng.Intn(1000)})
		default:
			entries = append(entries, LogEntry{Version: v, Op: OpCompact})
		}
	}
	return [][]LogEntry{nil, entries[:1], entries}
}

func encodeLog(t testing.TB, entries []LogEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteLogEntries(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLogEntriesRoundTrip(t *testing.T) {
	for _, tc := range logRoundTripTails() {
		got, err := ReadLogEntries(bytes.NewReader(encodeLog(t, tc)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc) {
			t.Fatalf("round trip: %d entries, want %d", len(got), len(tc))
		}
		for i := range tc {
			if got[i].Version != tc[i].Version || got[i].Op != tc[i].Op || got[i].ID != tc[i].ID ||
				!reflect.DeepEqual([]float64(got[i].Vector), []float64(tc[i].Vector)) {
				t.Fatalf("entry %d: got %+v want %+v", i, got[i], tc[i])
			}
		}
	}
}

// corruptionTail is the two-entry tail the corruption sweep mutates.
var corruptionTail = []LogEntry{
	{Version: 2, Op: OpInsert, ID: 0, Vector: []float64{1, 2}},
	{Version: 3, Op: OpDelete, ID: 1},
}

func TestLogEntriesCorruption(t *testing.T) {
	data := encodeLog(t, corruptionTail)

	// Truncations at every prefix length error, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadLogEntries(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Single-bit flips either fail or, at worst, decode to the same
	// entries (flips in ignored padding do not exist in this format, so
	// any accepted flip is a CRC collision — not reachable for single
	// bits over CRC-32).
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := ReadLogEntries(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	// Wrong magic names itself.
	mut := append([]byte(nil), data...)
	copy(mut, "NOTALOG!")
	if _, err := ReadLogEntries(bytes.NewReader(mut)); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// FuzzReadLogEntries: the log decoder is network-facing on every
// follower (dist.Client.LogEntries). Arbitrary bytes must error, never
// panic, and whatever decodes must re-encode to the very bytes read.
func FuzzReadLogEntries(f *testing.F) {
	for _, tail := range logRoundTripTails() {
		f.Add(encodeLog(f, tail))
	}
	data := encodeLog(f, corruptionTail)
	for cut := 0; cut < len(data); cut += 5 {
		f.Add(data[:cut])
	}
	for i := 0; i < len(data); i += 3 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadLogEntries(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := encodeLog(t, entries); !bytes.HasPrefix(data, got) {
			t.Fatalf("decoded tail re-encodes to %d bytes that are not the ones read", len(got))
		}
	})
}
