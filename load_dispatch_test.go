package mogul

// The magic-sniffing dispatch contract of mogul.Load/LoadFile across
// every on-disk container: one loader entry point accepts all four
// engine formats, returns the right concrete type behind the
// Retriever surface, and preserves answers bit-for-bit. Each format's
// own persistence suite covers its internals; this table pins the
// dispatch itself, including the failure mode for an unknown magic.

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func TestLoadDispatchAllFormats(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 200, Classes: 8, Dim: 8, WithinStd: 0.3, Separation: 2.5, Seed: 17})
	pts := ds.Points

	cases := []struct {
		format string
		build  func() (Retriever, error)
		check  func(Retriever) bool
	}{
		{
			"MOGULIDX", func() (Retriever, error) { return Build(pts, Options{Seed: 17}) },
			func(r Retriever) bool { _, ok := r.(*Index); return ok },
		},
		{
			"MOGULSHD", func() (Retriever, error) {
				return BuildSharded(pts, Options{Seed: 17}, ShardOptions{Shards: 3, Partitioner: PartitionKMeans})
			},
			func(r Retriever) bool { _, ok := r.(*ShardedIndex); return ok },
		},
		{
			"MOGULEMR", func() (Retriever, error) {
				return BuildEMR(pts, Options{Seed: 17}, EMROptions{NumAnchors: 16, NumNearestAnchors: 4})
			},
			func(r Retriever) bool { _, ok := r.(*EMRIndex); return ok },
		},
		{
			"MOGULSPC", func() (Retriever, error) {
				return BuildSpectral(pts, Options{Seed: 17}, SpectralOptions{Rank: 16})
			},
			func(r Retriever) bool { _, ok := r.(*SpectralIndex); return ok },
		},
	}
	for _, tc := range cases {
		t.Run(tc.format, func(t *testing.T) {
			built, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := built.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := string(buf.Bytes()[:8]); got != tc.format {
				t.Fatalf("container magic %q, want %q", got, tc.format)
			}

			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(loaded) {
				t.Fatalf("%s file dispatched to %T", tc.format, loaded)
			}
			if loaded.Len() != built.Len() {
				t.Fatalf("identity lost through Load: len=%d, want %d", loaded.Len(), built.Len())
			}
			for _, q := range []int{0, 25, 199} {
				want, err := built.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("TopK(%d): %d results, want %d", q, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node ||
						math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("TopK(%d) rank %d: (%d, %x), want (%d, %x)", q, i,
							got[i].Node, math.Float64bits(got[i].Score),
							want[i].Node, math.Float64bits(want[i].Score))
					}
				}
			}

			// The file path goes through the same dispatch.
			path := t.TempDir() + "/engine.mogul"
			if err := built.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			viaFile, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(viaFile) {
				t.Fatalf("%s file path dispatched to %T", tc.format, viaFile)
			}
		})
	}

	// An unknown magic is refused with a sniffing error, not handed to
	// an arbitrary format loader.
	junk := append([]byte("MOGULXXX"), bytes.Repeat([]byte{0}, 64)...)
	if _, err := Load(bytes.NewReader(junk)); err == nil {
		t.Fatal("Load accepted an unknown container magic")
	} else if got := fmt.Sprint(err); !bytes.Contains([]byte(got), []byte("MOGULXXX")) {
		t.Fatalf("sniffing error does not name the unknown magic: %v", err)
	}
}

// TestFramesRejectUnreadableVersions: every container refuses the
// version just below and just above its readable range with an error
// that names the range. The CRC is re-stamped so the version gate is
// what rejects the file — a stale checksum would fail the load for the
// wrong reason.
func TestFramesRejectUnreadableVersions(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 19})
	opts := Options{Seed: 19}
	cases := []struct {
		magic    string
		min, max uint32
		build    func() (Retriever, error)
	}{
		{"MOGULIDX", 2, 4, func() (Retriever, error) { return Build(ds.Points, opts) }},
		{shardedMagic, shardedFrame.MinVersion, shardedFrame.MaxVersion, func() (Retriever, error) {
			return BuildSharded(ds.Points, opts, ShardOptions{Shards: 2})
		}},
		{emrMagic, emrFrame.MinVersion, emrFrame.MaxVersion, func() (Retriever, error) {
			return BuildEMR(ds.Points, opts, EMROptions{NumAnchors: 12, NumNearestAnchors: 3})
		}},
		{spectralMagic, spectralFrame.MinVersion, spectralFrame.MaxVersion, func() (Retriever, error) {
			return BuildSpectral(ds.Points, opts, SpectralOptions{Rank: 12})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.magic, func(t *testing.T) {
			built, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := built.Save(&buf); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("reads versions %d-%d", tc.min, tc.max)
			for _, v := range []uint32{tc.min - 1, tc.max + 1} {
				image := stampVersion(buf.Bytes(), v)
				for name, load := range map[string]func() (Retriever, error){
					"stream": func() (Retriever, error) { return Load(bytes.NewReader(image)) },
					"image":  func() (Retriever, error) { return tryLoadMapped(image) },
				} {
					if _, err := load(); err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
						t.Fatalf("version %d (%s load): error %v, want one naming %q", v, name, err, want)
					}
				}
			}
		})
	}
}
