package ch

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/pqueue"
)

// lazyWitness is the reference witness search: a bounded Dijkstra that
// pushes every relaxation of an unsettled vertex and skips the stale entries
// as they pop. witness must settle exactly what it settles, in the same
// order, at the same distances.
func (b *builder) lazyWitness(src, banned graph.VertexID, limit float64) {
	b.nextWitnessEpoch()
	settled := b.wEpoch<<1 | 1
	b.wHeap.Reset()
	b.wHeap.Push(0, int64(src), src)
	settles := 0
	for b.wHeap.Len() > 0 && settles < b.settleCap {
		e, _ := b.wHeap.Pop()
		v := e.Value
		if b.wMark[v] == settled {
			continue
		}
		if e.Key > limit {
			break
		}
		b.wDist[v] = e.Key
		b.wMark[v] = settled
		settles++
		for _, ne := range b.adj[v] {
			if b.contracted[ne.to] || ne.to == banned || b.wMark[ne.to] == settled {
				continue
			}
			b.wHeap.Push(e.Key+ne.w, int64(ne.to), ne.to)
		}
	}
}

// lazyDist is the reference query: the bidirectional upward search with
// map labels that pushes every relaxation of an unsettled vertex. Dist must
// return its distance and its pop count.
func (c *CH) lazyDist(s, t graph.VertexID) (float64, int) {
	if s == t {
		return 0, 0
	}
	type search struct {
		dist map[graph.VertexID]float64
		heap pqueue.Heap[graph.VertexID]
	}
	newSearch := func(src graph.VertexID) *search {
		s := &search{dist: map[graph.VertexID]float64{}}
		s.heap.Push(0, int64(src), src)
		return s
	}
	headKey := func(s *search) float64 {
		for s.heap.Len() > 0 {
			e := s.heap.Peek()
			if _, done := s.dist[e.Value]; done {
				s.heap.Pop()
				continue
			}
			return e.Key
		}
		return graph.Infinity
	}
	fwd, bwd := newSearch(s), newSearch(t)
	best, pops := graph.Infinity, 0
	for {
		headF, headB := headKey(fwd), headKey(bwd)
		activeF, activeB := headF < best, headB < best
		if !activeF && !activeB {
			return best, pops
		}
		adv, other := fwd, bwd
		if !activeF || (activeB && headB < headF) {
			adv, other = bwd, fwd
		}
		e, _ := adv.heap.Pop()
		v := e.Value
		adv.dist[v] = e.Key
		pops++
		if od, ok := other.dist[v]; ok {
			best = min(best, e.Key+od)
		}
		for i := c.upOff[v]; i < c.upOff[v+1]; i++ {
			u := c.upTgt[i]
			nd := e.Key + c.upW[i]
			if _, done := adv.dist[u]; !done {
				adv.heap.Push(nd, int64(u), u)
			}
			if od, ok := other.dist[u]; ok {
				best = min(best, nd+od)
			}
		}
	}
}

// TestBuildAndDistMatchLazyReference builds every hierarchy twice, once with
// the label-pruned witness search and once with the lazy reference, and
// requires identical hierarchies: ranks, upward edges, shortcut and core
// counts. Queries on it must match the lazy query's distance and pops.
func TestBuildAndDistMatchLazyReference(t *testing.T) {
	for _, p := range []gen.Preset{gen.GowallaPreset, gen.FoursquarePreset, gen.UrbanPreset, gen.TwitterPreset} {
		sizes := []int{60, 150}
		if p == gen.TwitterPreset {
			sizes = []int{60, 100} // six times denser: contraction is quadratic in degree
		}
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", p.Name, n), func(t *testing.T) {
				ds, err := p.Dataset(n, 7)
				if err != nil {
					t.Fatal(err)
				}
				got := Build(ds.G)
				ref := newBuilder(ds.G, witnessSettleLimit, maxContractDegree)
				ref.search = ref.lazyWitness
				if want := ref.run(); !reflect.DeepEqual(got, want) {
					t.Fatalf("hierarchy differs from the lazy reference: %d shortcuts, core %d; reference %d, core %d",
						got.shortcuts, got.coreSize, want.shortcuts, want.coreSize)
				}
				// The queries on it settle what the lazy reference settles.
				rng := rand.New(rand.NewSource(int64(n)))
				for probe := 0; probe < 200; probe++ {
					s, tgt := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
					d, pops := got.Dist(s, tgt)
					if wd, wpops := got.lazyDist(s, tgt); d != wd || pops != wpops {
						t.Fatalf("Dist(%d,%d) = %v in %d pops, reference %v in %d", s, tgt, d, pops, wd, wpops)
					}
				}
			})
		}
	}
	// A tiny settle cap makes the searches stop early, where the two heaps
	// hold different stale entries.
	g := randomGraph(rand.New(rand.NewSource(31)), 80, 400)
	ref := newBuilder(g, 3, maxContractDegree)
	ref.search = ref.lazyWitness
	if got, want := build(g, 3, maxContractDegree), ref.run(); !reflect.DeepEqual(got, want) {
		t.Fatal("settle cap 3: hierarchy differs from the lazy reference")
	}
}
