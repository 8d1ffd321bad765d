package mogul

// Committed bench-baseline guard. CI's bench-smoke job and the docs
// reference BENCH_*.json artifacts as the repo's performance
// trajectory; the committed copies at the repo root are the baselines
// those runs are read against. A baseline that silently disappears
// from the tree (as BENCH_search.json, BENCH_emr.json, and
// BENCH_distributed.json once did) leaves the trajectory empty with
// no failing signal — so this test scans every doc and workflow for
// BENCH_*.json references and fails loudly when a referenced baseline
// is absent or unreadable.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// benchBaselineRefs collects the set of BENCH_*.json names referenced
// by CI and the user-facing docs. Historical notes in CHANGES.md, the
// per-PR ISSUE.md, and the ROADMAP do not pin baselines: a planning
// document must be free to name a baseline that does not exist yet
// (one that did once turned tier-1 red).
func benchBaselineRefs(t *testing.T) []string {
	t.Helper()
	sources := []string{".github/workflows/ci.yml", "README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, docs...)

	re := regexp.MustCompile(`BENCH_\w+\.json`)
	seen := map[string]bool{}
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, m := range re.FindAllString(string(data), -1) {
			seen[m] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no BENCH_*.json references found in CI or docs — the scan is broken")
	}
	return names
}

// TestF32BaselineStreamRatio pins the mixed-precision acceptance
// criterion into the committed BENCH_f32.json: every F32 distance
// kernel must stream fewer bytes per op than its F64 counterpart, and
// the dense batch kernels (whose traffic is pure element storage, no
// index columns) must show at least the 1.5x reduction the storage
// mode exists for. The ratio is a property of the layout, not the
// machine, so a committed baseline that violates it was generated
// against regressed kernels.
func TestF32BaselineStreamRatio(t *testing.T) {
	data, err := os.ReadFile("BENCH_f32.json")
	if err != nil {
		t.Fatalf("baseline BENCH_f32.json missing: %v", err)
	}
	var rep struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	stream := map[string]float64{}
	for _, b := range rep.Benchmarks {
		if v, ok := b.Metrics["stream-B/op"]; ok {
			stream[b.Name] = v
		}
	}
	pairs := []struct {
		kernel   string
		minRatio float64
	}{
		{"BenchmarkKernelSquaredEuclideanBatch", 1.5},
		{"BenchmarkKernelDotRows", 1.5},
		// The gather kernel's traffic includes the int32 index column,
		// which does not narrow: 12 -> 8 bytes per element, ratio 1.5.
		{"BenchmarkKernelGather", 1.4},
	}
	for _, p := range pairs {
		f64, ok64 := stream[p.kernel+"F64"]
		f32, ok32 := stream[p.kernel+"F32"]
		if !ok64 || !ok32 {
			t.Errorf("BENCH_f32.json is missing the %sF64/F32 pair", p.kernel)
			continue
		}
		if ratio := f64 / f32; ratio < p.minRatio {
			t.Errorf("%s: f64 streams %.0f B/op vs f32 %.0f (%.2fx), want >= %.1fx less traffic",
				p.kernel, f64, f32, ratio, p.minRatio)
		}
	}
}

func TestCommittedBenchBaselinesPresent(t *testing.T) {
	for _, name := range benchBaselineRefs(t) {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("baseline %s is referenced by CI/docs but missing from the tree: %v", name, err)
			}
			// The committed baseline must be a real bench2json report, not
			// an empty or truncated artifact.
			var rep struct {
				Benchmarks []struct {
					Name    string  `json:"name"`
					NsPerOp float64 `json:"ns_per_op"`
				} `json:"benchmarks"`
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("baseline %s is not valid bench2json output: %v", name, err)
			}
			if len(rep.Benchmarks) == 0 {
				t.Fatalf("baseline %s carries no benchmark entries", name)
			}
			for _, b := range rep.Benchmarks {
				if b.Name == "" || b.NsPerOp <= 0 {
					t.Fatalf("baseline %s has a benchmark entry without a name or timing: %+v", name, b)
				}
			}
		})
	}
}
