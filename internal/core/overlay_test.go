package core

import (
	"fmt"
	"io"

	"mogul/internal/binio"
	"mogul/internal/vec"
)

// dyn is the smallest lifecycle the tests need around a base and its
// overlay — store an inserted point with its surrogates, flip a
// tombstone, frame a save, and run a search over the view — standing in
// for package mogul's engine, which does this for real (with the locks,
// the version and the log this package no longer knows about).
type dyn struct {
	*Index
	Delta
	clusters [][]int
}

func newDyn(ix *Index) *dyn {
	return &dyn{Index: ix, Delta: Delta{Dead: make([]bool, ix.factor.N)}}
}

func (d *dyn) overlay() *Overlay {
	ov := &Overlay{Dead: d.Dead, Probes: d.Probes, Weights: d.Weights, Clusters: d.clusters}
	for id, dead := range d.Dead {
		switch {
		case !dead:
			ov.Live++
		case id < d.factor.N:
			ov.DeadBase++
		}
	}
	return ov
}

func (d *dyn) Len() int { return d.overlay().Live }

func (d *dyn) Insert(v vec.Vector) (int, error) {
	probes, weights, clusters, err := d.Attach(d.overlay(), v)
	if err != nil {
		return 0, err
	}
	d.Points.Append(append(vec.Vector(nil), v...))
	d.Probes = append(d.Probes, probes)
	d.Weights = append(d.Weights, weights)
	d.clusters = append(d.clusters, clusters)
	d.Dead = append(d.Dead, false)
	return len(d.Dead) - 1, nil
}

func (d *dyn) Delete(id int) error {
	if id < 0 || id >= len(d.Dead) || d.Dead[id] {
		return fmt.Errorf("core test: item %d is not live", id)
	}
	d.Dead[id] = true
	return nil
}

// WriteTo frames the base and the delta layer as a MOGULIDX container.
func (d *dyn) WriteTo(w io.Writer) (int64, error) { return d.WriteToAligned(w, 0) }

func (d *dyn) WriteToAligned(w io.Writer, align int) (int64, error) {
	version := IndexFrame.SaveVersion(d.factor.F32(), align)
	return binio.WriteContainer(w, indexMagic, version, d.Sections(version, align, &d.Delta))
}

// WriteTo on a bare index writes no delta layer.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return newDyn(ix).WriteTo(w) }

// asDyn wraps a decoded container the way a load does.
func asDyn(dec *Decoded, err error) (*dyn, error) {
	if err != nil {
		return nil, err
	}
	d := &dyn{Index: dec.Index, Delta: dec.Delta}
	if d.Dead == nil {
		d.Dead = make([]bool, d.factor.N)
	}
	for _, probes := range d.Probes {
		d.clusters = append(d.clusters, d.ProbeClusters(probes))
	}
	return d, nil
}

// WeightedQuery is one seed node of a multi-seed search: an in-database
// node id with its share of the query mass.
type WeightedQuery struct {
	Node   int
	Weight float64
}

// checkItem is the liveness check the lifecycle runs before a search.
func (d *dyn) checkItem(id int) error {
	if id < 0 || id >= len(d.Dead) || d.Dead[id] {
		return fmt.Errorf("core test: query node %d is not live", id)
	}
	return nil
}

func (d *dyn) SearchMultiScratch(s *Scratch, seeds []WeightedQuery, opts SearchOptions) ([]Result, *SearchInfo, error) {
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("core test: K must be positive")
	}
	ov := d.overlay()
	d.Begin(s)
	for _, sd := range seeds {
		if err := d.checkItem(sd.Node); err != nil {
			return nil, nil, err
		}
		d.AddSeed(s, ov, sd.Node, sd.Weight)
	}
	res := d.SearchSeeds(s, ov, opts)
	info := s.info
	return res, &info, nil
}

func (d *dyn) SearchMulti(seeds []WeightedQuery, opts SearchOptions) ([]Result, *SearchInfo, error) {
	return d.SearchMultiScratch(new(Scratch), seeds, opts)
}

func (d *dyn) SearchScratch(s *Scratch, query int, opts SearchOptions) ([]Result, *SearchInfo, error) {
	return d.SearchMultiScratch(s, []WeightedQuery{{Node: query, Weight: 1}}, opts)
}

func (d *dyn) Search(query int, opts SearchOptions) ([]Result, *SearchInfo, error) {
	return d.SearchScratch(new(Scratch), query, opts)
}

func (d *dyn) TopKScratch(s *Scratch, query, k int) ([]Result, error) {
	res, _, err := d.SearchScratch(s, query, SearchOptions{K: k})
	return res, err
}

func (d *dyn) SearchOutOfSample(q vec.Vector, opts OOSOptions) ([]Result, *OOSBreakdown, error) {
	return d.SearchVector(new(Scratch), d.overlay(), q, opts, true)
}

func (d *dyn) TopKVectorScratch(s *Scratch, q vec.Vector, k int) ([]Result, error) {
	res, _, err := d.SearchVector(s, d.overlay(), q, OOSOptions{K: k}, false)
	return res, err
}

func (d *dyn) TopKVector(q vec.Vector, k int) ([]Result, error) {
	return d.TopKVectorScratch(new(Scratch), q, k)
}
