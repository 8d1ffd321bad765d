package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"mogul/internal/binio"
)

func TestClusteringCodecRoundTrip(t *testing.T) {
	c := &Clustering{
		Assign:     []int{0, 0, 1, 2, 1, 2, 2},
		N:          3,
		Modularity: 0.4375,
		Levels:     2,
	}
	var buf bytes.Buffer
	if err := c.Encode(binio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClustering(binio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestReadClusteringRejectsCorruption(t *testing.T) {
	c := &Clustering{Assign: []int{0, 1, 1}, N: 2}
	var buf bytes.Buffer
	if err := c.Encode(binio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < buf.Len(); n++ {
		if _, err := ReadClustering(binio.NewBytesReader(buf.Bytes()[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Assignment outside [0, N).
	bad := &Clustering{Assign: []int{0, 5}, N: 2}
	var b2 bytes.Buffer
	if err := bad.Encode(binio.NewWriter(&b2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadClustering(binio.NewReader(&b2)); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}
