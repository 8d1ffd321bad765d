package mogul

import (
	"testing"
)

func TestTopKBatchMatchesSequential(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	queries := []int{0, 7, 42, 199, 7, 399}
	batch := ix.TopKBatch(queries, 6, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("query %d: %v", queries[i], br.Err)
		}
		if br.Query != queries[i] {
			t.Fatalf("result %d attributed to query %d, want %d", i, br.Query, queries[i])
		}
		seq, err := ix.TopK(queries[i], 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(br.Results) {
			t.Fatalf("lengths differ for query %d", queries[i])
		}
		for j := range seq {
			if seq[j] != br.Results[j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", queries[i], j, seq[j], br.Results[j])
			}
		}
	}
}

func TestTopKBatchPerQueryErrors(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	batch := ix.TopKBatch([]int{5, -1, 10_000_000}, 3, 0)
	if batch[0].Err != nil {
		t.Fatalf("valid query failed: %v", batch[0].Err)
	}
	if batch[1].Err == nil || batch[2].Err == nil {
		t.Fatal("invalid queries did not error")
	}
}

func TestTopKBatchEmpty(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	if got := ix.TopKBatch(nil, 5, 2); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}
