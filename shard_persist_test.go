package mogul

// Persistence tests for the sharded manifest (MOGULSHD,
// docs/FORMAT.md), matching the plain-format suite in persist_test.go:
// bit-identical round trips, magic-sniffing dispatch through Load, an
// errors-never-panics corruption sweep, and a fuzz target over the
// whole loader.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// buildShardedFixture builds a small sharded index with live delta
// state (inserts and tombstones on both base and delta items) so a
// round trip covers every manifest feature.
func buildShardedFixture(t *testing.T, shards int, part Partitioner) *ShardedIndex {
	t.Helper()
	ds := NewMixture(MixtureConfig{N: 240, Classes: 8, Dim: 10, WithinStd: 0.3, Separation: 2.5, Seed: 43})
	six, err := BuildSharded(ds.Points[:200], Options{Seed: 3}, ShardOptions{Shards: shards, Partitioner: part})
	if err != nil {
		t.Fatal(err)
	}
	var delta []int
	for _, p := range ds.Points[200:] {
		g, err := six.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		delta = append(delta, g)
	}
	if err := six.Delete(13); err != nil {
		t.Fatal(err)
	}
	if err := six.Delete(delta[2]); err != nil {
		t.Fatal(err)
	}
	return six
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	for _, part := range []Partitioner{PartitionContiguous, PartitionKMeans} {
		for _, shards := range []int{1, 3} {
			six := buildShardedFixture(t, shards, part)
			var buf bytes.Buffer
			if err := six.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSharded(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != six.Len() || loaded.NumShards() != six.NumShards() {
				t.Fatalf("identity lost: len=%d shards=%d", loaded.Len(), loaded.NumShards())
			}
			// Save -> Load -> TopK is bit-identical to TopK, across all
			// query paths, including delta items and tombstones.
			for _, q := range []int{0, 57, 199, 201} {
				a, err := six.TopK(q, 12)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loaded.TopK(q, 12)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("part=%d S=%d TopK(%d) widths %d vs %d", part, shards, q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("part=%d S=%d TopK(%d) result %d: %+v vs %+v", part, shards, q, i, a[i], b[i])
					}
				}
			}
			qv := append(Vector(nil), six.shards[0].st.base.Graph().Points.Row(3, nil)...)
			qv[0] += 0.03
			a, err := six.TopKVector(qv, 12)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.TopKVector(qv, 12)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("part=%d S=%d TopKVector result %d differs", part, shards, i)
				}
			}
			// The loaded index keeps mutating correctly: insert routing
			// (k-means centroids round-tripped), deletes, compaction.
			if _, err := loaded.Insert(qv); err != nil {
				t.Fatal(err)
			}
			if err := loaded.Delete(2); err != nil {
				t.Fatal(err)
			}
			if err := loaded.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, err := loaded.TopK(0, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadSniffsMagic: the fix under test — Load and LoadFile
// dispatch on the magic header, so callers feed
// any index file to one entry point and get the right kind back.
func TestLoadSniffsMagic(t *testing.T) {
	plain, _ := buildTestIndex(t, Options{})
	six := buildShardedFixture(t, 2, PartitionContiguous)

	var plainBuf, shardBuf bytes.Buffer
	if err := plain.Save(&plainBuf); err != nil {
		t.Fatal(err)
	}
	if err := six.Save(&shardBuf); err != nil {
		t.Fatal(err)
	}

	got, err := Load(bytes.NewReader(plainBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(*Index); !ok {
		t.Fatalf("plain file loaded as %T", got)
	}
	got, err = Load(bytes.NewReader(shardBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sharded, ok := got.(*ShardedIndex)
	if !ok {
		t.Fatalf("sharded file loaded as %T", got)
	}
	if sharded.NumShards() != 2 || sharded.Len() != six.Len() {
		t.Fatalf("sharded identity lost through Load: shards=%d len=%d", sharded.NumShards(), sharded.Len())
	}

	// The file-path entry point dispatches identically — and the
	// results match the in-memory index.
	dir := t.TempDir()
	if err := six.SaveFile(dir + "/sharded.mogul"); err != nil {
		t.Fatal(err)
	}
	// The typed entry point agrees with the sniffing ones.
	if _, err := LoadShardedFile(dir + "/sharded.mogul"); err != nil {
		t.Fatal(err)
	}
	r, err := LoadFile(dir + "/sharded.mogul")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*ShardedIndex); !ok {
		t.Fatalf("file path loaded as %T", r)
	}
	a, _ := six.TopK(7, 6)
	b, err := r.TopK(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs through file load", i)
		}
	}

	// Garbage magic still errors cleanly through the sniffing path.
	if _, err := Load(bytes.NewReader([]byte("GOBSTREAMnot an index"))); err == nil {
		t.Fatal("garbage magic accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("MOG"))); err == nil {
		t.Fatal("3-byte input accepted")
	}
}

// TestLoadShardedNeverPanics: the corruption sweep of the plain format
// applied to the sharded manifest — every truncation prefix, a stride
// of single-byte corruptions, a wrong manifest version, and structural
// lies in the section framing must error, never panic.
func TestLoadShardedNeverPanics(t *testing.T) {
	six := buildShardedFixture(t, 2, PartitionKMeans)
	var buf bytes.Buffer
	if err := six.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	tryLoad := func(label string, b []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %s: %v", label, r)
			}
		}()
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatalf("Load accepted %s", label)
		}
	}
	for n := 0; n < len(data); n += 211 {
		tryLoad(fmt.Sprintf("truncation to %d bytes", n), data[:n])
	}
	for pos := 0; pos < len(data); pos += 307 {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0x5A
		tryLoad(fmt.Sprintf("corruption at byte %d", pos), mutated)
	}

	// Table of structural corruptions with their CRC re-stamped, so the
	// validation layer (not just the checksum) is what rejects them.
	futureVersion := append([]byte(nil), data...)
	futureVersion[8] = 0xFF
	truncatedEnd := data[:len(data)-16]
	badEndPayload := append([]byte(nil), data...)
	// The end marker's length field sits 12 bytes before the CRC.
	binary.LittleEndian.PutUint64(badEndPayload[len(badEndPayload)-12:], 7)
	for _, tc := range []struct {
		label string
		data  []byte
	}{
		{"future manifest version", restamp(futureVersion)},
		{"missing end marker", truncatedEnd},
		{"end marker with payload", restamp(badEndPayload)},
		{"empty input", nil},
		{"bare sharded magic", []byte(shardedMagic)},
	} {
		tryLoad(tc.label, tc.data)
	}
}

// restamp returns a copy of a container image with its trailing CRC
// recomputed, so a structural lie reaches the validation layer.
func restamp(b []byte) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32IEEE(out[:len(out)-4]))
	return out
}

func crc32IEEE(b []byte) uint32 {
	// Matches the container checksum (binio tracks CRC-32 IEEE).
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, x := range b {
		crc ^= uint32(x)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// fuzzShardedSeed serializes one sharded fixture (with delta state)
// once for the fuzz corpus.
var fuzzShardedSeed = sync.OnceValue(func() []byte {
	ds := NewMixture(MixtureConfig{N: 90, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 47})
	six, err := BuildSharded(ds.Points[:80], Options{Seed: 3}, ShardOptions{Shards: 2, Partitioner: PartitionKMeans})
	if err != nil {
		panic(err)
	}
	for _, p := range ds.Points[80:] {
		if _, err := six.Insert(p); err != nil {
			panic(err)
		}
	}
	if err := six.Delete(3); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := six.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// FuzzLoadSharded feeds arbitrary bytes to the sniffing loader. The
// contract: Load never panics, and any sharded input it accepts must
// search, mutate, and re-save without panicking. Explore with
//
//	go test -fuzz FuzzLoadSharded -fuzztime 30s .
func FuzzLoadSharded(f *testing.F) {
	seed := fuzzShardedSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])         // truncation
	f.Add(seed[:len(seed)-3])         // clipped checksum
	f.Add([]byte(shardedMagic))       // header only
	f.Add([]byte("MOGULSHD\x01\x00")) // header + partial version
	f.Add([]byte("MOGULIDX12345678")) // plain magic, garbage body
	mutated := append([]byte(nil), seed...)
	mutated[len(mutated)/3] ^= 0x5A // body corruption
	f.Add(mutated)
	versioned := append([]byte(nil), seed...)
	versioned[8] = 0xFF // far-future manifest version
	f.Add(versioned)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		six, ok := r.(*ShardedIndex)
		if !ok {
			// A plain index slipping through is FuzzLoad's territory.
			return
		}
		if six.Len() <= 0 {
			t.Fatalf("loaded sharded index has %d items", six.Len())
		}
		if _, err := six.TopK(0, 3); err != nil {
			t.Fatalf("loaded sharded index cannot search: %v", err)
		}
		if _, _, err := six.Neighbors(0); err != nil {
			t.Fatalf("loaded sharded index cannot serve neighbours: %v", err)
		}
		var buf bytes.Buffer
		if err := six.Save(&buf); err != nil {
			t.Fatalf("loaded sharded index cannot re-save: %v", err)
		}
	})
}
