package mogul

// Sharded index persistence: the MOGULSHD manifest (docs/FORMAT.md).
//
// A sharded index file is a container of its own — magic "MOGULSHD",
// its own version counter, the same tag/length/payload section framing
// as the plain index format, and a trailing CRC-32 — that nests one
// complete MOGULIDX stream per shard next to the manifest metadata
// (shard count, partitioner, routing centroids, and the local<->global
// id maps). A build that predates sharding fails the magic check with
// a clean "not a mogul index file" error instead of misreading the
// manifest, which is exactly the loud failure the format policy asks
// of a semantic extension; mogul.Load sniffs the magic and dispatches
// to the right reader, so callers never branch on file kind.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"mogul/internal/binio"
	"mogul/internal/core"
)

// shardedMagic identifies a sharded Mogul index file.
const shardedMagic = "MOGULSHD"

// shardedFormatVersion is the sharded-manifest version this build
// writes; shardedMinReadVersion is the oldest it reads. The manifest
// versions independently of the nested plain-index format (each SIDX
// payload carries its own MOGULIDX version field).
const (
	shardedFormatVersion  = 1
	shardedMinReadVersion = 1
)

// Manifest section tags.
var (
	tagSmet = [4]byte{'S', 'M', 'E', 'T'}
	tagSctr = [4]byte{'S', 'C', 'T', 'R'}
	tagSmap = [4]byte{'S', 'M', 'A', 'P'}
	tagSidx = [4]byte{'S', 'I', 'D', 'X'}
)

var shardedFrame = binio.Frame{
	Magic:        shardedMagic,
	Kind:         "sharded index",
	MinVersion:   shardedMinReadVersion,
	MaxVersion:   shardedFormatVersion,
	PlainVersion: shardedFormatVersion,
	Tags:         [][4]byte{tagSmet, tagSctr, tagSmap, tagSidx},
}

// maxRetiredIDs bounds how far the global id space may outgrow the
// mapped shard slots (each delete+Compact retires one id forever).
// Save enforces it so a file is never written that Load — which uses
// the same bound to keep its allocation proportional to the data the
// file actually carries — would reject; an index that hits it must be
// rebuilt fresh (BuildSharded over the live points re-ids from zero).
const maxRetiredIDs = 1 << 20

// Save writes the sharded index — manifest plus every shard's complete
// index stream — in the versioned MOGULSHD format. Mutators block for
// the duration; searches proceed.
func (six *ShardedIndex) Save(w io.Writer) error {
	// The mutator lock freezes the shard states and the id map against
	// Insert/Delete/Compact so the two-pass section framing sees
	// identical bytes.
	six.set.LockMutators()
	defer six.set.UnlockMutators()

	totalSlots := 0
	for _, sh := range six.shards {
		totalSlots += sh.IDSpace()
	}
	if retired := six.set.Globals() - totalSlots; retired > maxRetiredIDs {
		return fmt.Errorf("mogul: %d retired global ids exceed the format's %d limit; rebuild the index fresh (BuildSharded over the live points) before saving", retired, maxRetiredIDs)
	}

	sections := []binio.Section{{Tag: tagSmet, Payload: six.writeShardMeta}}
	if len(six.set.Route()) > 0 {
		sections = append(sections, binio.Section{Tag: tagSctr, Payload: six.writeCentroids})
	}
	sections = append(sections, binio.Section{Tag: tagSmap, Payload: six.writeIDMaps})
	for _, sh := range six.shards {
		// Every SIDX payload is a whole nested index stream.
		sections = append(sections, binio.Section{Tag: tagSidx, Payload: func(sw *binio.Writer) error { return sh.Save(sw) }})
	}
	_, err := binio.WriteContainer(w, shardedMagic, shardedFormatVersion, sections)
	return err
}

// writeShardMeta writes the manifest; the partitioner is k-means
// exactly when the set routes by centroids.
func (six *ShardedIndex) writeShardMeta(bw *binio.Writer) error {
	part := PartitionContiguous
	if len(six.set.Route()) > 0 {
		part = PartitionKMeans
	}
	bw.Int(len(six.shards))
	bw.Int(int(part))
	bw.Int(six.set.Globals())
	bw.Float64(six.set.AutoCompact())
	return bw.Err()
}

func (six *ShardedIndex) writeCentroids(bw *binio.Writer) error {
	route := six.set.Route()
	bw.Int(len(route))
	for _, c := range route {
		bw.Floats(c)
	}
	return bw.Err()
}

// writeIDMaps stores one dense local->global table per shard; the
// inverse is rebuilt on load (retired global ids are exactly the ones
// no table mentions).
func (six *ShardedIndex) writeIDMaps(bw *binio.Writer) error {
	for s := range six.shards {
		bw.Ints(six.set.Locals(s))
	}
	return bw.Err()
}

// SaveFile writes the sharded index to a file via Save with the same
// atomic temp-file-and-rename protocol as Index.SaveFile.
func (six *ShardedIndex) SaveFile(path string) error {
	return saveFileAtomic(path, six.Save)
}

// saveFileAtomic streams save into a temporary sibling of path and
// renames it into place, so a crash mid-save never leaves a truncated
// file behind. Shared by Index.SaveFile and ShardedIndex.SaveFile.
func saveFileAtomic(path string, save func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must stage its temp file in the destination
		// directory, not os.TempDir(): rename does not cross devices.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// CreateTemp makes the file 0600; give the final index the usual
	// artifact permissions so other users (a service account) can load it.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadSharded reads a sharded index written by ShardedIndex.Save.
// Malformed input of any kind — wrong magic, unknown version,
// truncation, checksum mismatch, inconsistent id maps, a corrupt
// nested shard stream — yields an error, never a panic. Plain callers
// normally go through Load, which sniffs the magic and dispatches
// here on its own.
func LoadSharded(r io.Reader) (*ShardedIndex, error) {
	_, secs, err := binio.ReadContainer(binio.NewReader(r), &shardedFrame)
	if err != nil {
		return nil, err
	}
	var meta, centroids, idMaps []byte
	var shardPayloads [][]byte
	for _, s := range secs {
		switch s.Tag {
		case tagSmet:
			meta = s.Data
		case tagSctr:
			centroids = s.Data
		case tagSmap:
			idMaps = s.Data
		case tagSidx:
			shardPayloads = append(shardPayloads, s.Data)
		}
	}
	if meta == nil || idMaps == nil {
		return nil, fmt.Errorf("mogul: sharded index file is missing a required manifest section")
	}
	return assembleSharded(meta, centroids, idMaps, shardPayloads)
}

// assembleSharded decodes the manifest payloads, loads every nested
// shard stream, and hands the id maps to newShardedIndex, which
// cross-validates them against the loaded shard states.
func assembleSharded(meta, centroids, idMaps []byte, shardPayloads [][]byte) (*ShardedIndex, error) {
	mr := binio.NewBytesReader(meta)
	numShards := mr.Int()
	part := mr.Int()
	globals := mr.Int()
	autoCompact := mr.Float64()
	if err := mr.Err(); err != nil {
		return nil, fmt.Errorf("mogul: decoding sharded metadata: %w", err)
	}
	if numShards < 1 || numShards > binio.MaxCount {
		return nil, fmt.Errorf("mogul: corrupt sharded metadata: %d shards", numShards)
	}
	if part != int(PartitionContiguous) && part != int(PartitionKMeans) {
		return nil, fmt.Errorf("mogul: corrupt sharded metadata: partitioner %d", part)
	}
	if globals < numShards || globals > binio.MaxCount {
		return nil, fmt.Errorf("mogul: corrupt sharded metadata: %d global ids for %d shards", globals, numShards)
	}
	if math.IsNaN(autoCompact) || math.IsInf(autoCompact, 0) || autoCompact < 0 {
		return nil, fmt.Errorf("mogul: corrupt sharded metadata: auto-compact fraction %g", autoCompact)
	}
	if len(shardPayloads) != numShards {
		return nil, fmt.Errorf("mogul: sharded index file carries %d shard streams, metadata says %d", len(shardPayloads), numShards)
	}

	shards := make([]*Index, numShards)
	for s, payload := range shardPayloads {
		var err error
		if shards[s], err = loadIndex(core.ReadIndex(bytes.NewReader(payload))); err != nil {
			return nil, fmt.Errorf("mogul: loading shard %d: %w", s, err)
		}
		shardPayloads[s] = nil // release while the rest decodes
	}

	dim := shards[0].st.dim // 0 when the shards carry no feature vectors
	var ctr []Vector
	if part == int(PartitionKMeans) {
		if centroids == nil {
			return nil, fmt.Errorf("mogul: k-means sharded index is missing its centroid section")
		}
		cr := binio.NewBytesReader(centroids)
		count := cr.Int()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("mogul: decoding centroids: %w", err)
		}
		if count != numShards {
			return nil, fmt.Errorf("mogul: %d routing centroids for %d shards", count, numShards)
		}
		ctr = make([]Vector, count)
		for c := range ctr {
			v := cr.Floats(binio.MaxCount)
			if err := cr.Err(); err != nil {
				return nil, fmt.Errorf("mogul: decoding centroid %d: %w", c, err)
			}
			if dim > 0 && len(v) != dim {
				return nil, fmt.Errorf("mogul: centroid %d has dim %d, want %d", c, len(v), dim)
			}
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("mogul: centroid %d has non-finite component", c)
				}
			}
			ctr[c] = v
		}
	}

	// The global id space may exceed the mapped slots (ids of items
	// deleted and compacted away are retired, never reused), but only
	// within a bounded headroom: the id maps are what the file actually
	// carries, and sizing the id map from an unchecked count would let a
	// crafted manifest demand an allocation unrelated to its own size.
	totalSlots := 0
	for _, sh := range shards {
		totalSlots += sh.IDSpace()
	}
	if globals > totalSlots+maxRetiredIDs {
		return nil, fmt.Errorf("mogul: corrupt sharded metadata: %d global ids for %d shard slots", globals, totalSlots)
	}
	partition := make([][]int, numShards)
	ir := binio.NewBytesReader(idMaps)
	for s := range partition {
		partition[s] = ir.Ints(globals)
		if err := ir.Err(); err != nil {
			return nil, fmt.Errorf("mogul: decoding id map of shard %d: %w", s, err)
		}
	}
	return newShardedIndex(shards, partition, globals, ctr, autoCompact)
}
