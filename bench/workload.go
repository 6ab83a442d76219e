package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"

	"ssrq/internal/dataset"
	"ssrq/internal/gen"
)

// Table-3 defaults: every query of every workload uses them, with the
// server's default algorithm (AIS) and no contraction hierarchy.
const (
	queryK     = 30
	queryAlpha = 0.3
)

// datasetSeed fixes the dataset and the engine's randomized preprocessing for
// every run: 42, the seed cmd/ssrq-server synthesizes with by default. The
// dataset is the fixture; --seed draws the traffic. Run-to-run spread then
// measures the program and the machine, not how one synthetic graph differs
// from the next (which moves query latency by more than 10% at 100k users).
const datasetSeed int64 = 42

// spec is one workload: the dataset and engine the server is built with, and
// the traffic that drives it. BENCHMARK.json carries the one-line reason for
// each; bench/README.md the long form.
type spec struct {
	name   string
	preset string
	n      int
	shards int
	// wal turns on the write-ahead log (fsync=batch) with a background
	// checkpoint every ckptEvery journaled ops.
	wal       bool
	ckptEvery int64
	// standingSubs in-process subscriptions are registered before traffic
	// starts, beside the one SSE subscriber of a stream with sse set.
	standingSubs int
	streams      []streamSpec
}

// streamSpec is one client connection's traffic. rate > 0 is an open loop
// (requests due every 1/rate seconds whether or not the previous one has
// returned); rate 0 is a closed loop (next request when the previous one
// completes). primary marks the stream whose ops feed op_p50_ms / op_p95_ms /
// ops_per_s.
type streamSpec struct {
	rate    float64
	primary bool
	// Queries: filtered alternates unfiltered queries with ones filtered to
	// the query user's own city label and the next city's.
	query, filtered bool
	// Writes: every request is a POST /moves of moves moves with flush:true,
	// except every edgeEvery-th, which is a POST /edges of edges upserts.
	moves, edges, edgeEvery int
	// subEvery > 0 opens one SSE /subscribe beside this write stream and
	// moves the subscriber's own user in every subEvery-th request.
	subEvery int
}

var specs = []spec{
	{
		name: "read_large", preset: "gowalla", n: 100000, shards: 1,
		streams: []streamSpec{{query: true, primary: true}, {query: true, primary: true}},
	},
	{
		name: "read_sharded", preset: "urban", n: 30000, shards: 4,
		streams: []streamSpec{
			{rate: 12.5, query: true, filtered: true, primary: true},
			{rate: 12.5, query: true, filtered: true, primary: true},
		},
	},
	{
		name: "mixed_durable", preset: "gowalla", n: 30000, shards: 1, wal: true, ckptEvery: 5000,
		streams: []streamSpec{
			{rate: 25, query: true, primary: true},
			{rate: 25, moves: 64, edges: 8, edgeEvery: 10},
		},
	},
	{
		name: "ingest_recover", preset: "gowalla", n: 30000, shards: 1, wal: true, ckptEvery: 100000,
		standingSubs: 50,
		streams: []streamSpec{
			{moves: 256, edges: 16, edgeEvery: 8, subEvery: 20, primary: true},
		},
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// smoke shrinks a workload to a second or so of work for the harness tests:
// same code paths, a tiny dataset and checkpoints frequent enough to fire.
func (s spec) smoke() spec {
	s.n = 800
	if s.ckptEvery > 0 {
		s.ckptEvery = 500
	}
	if s.standingSubs > 0 {
		s.standingSubs = 20
	}
	return s
}

func presetByName(name string) (gen.Preset, error) {
	switch name {
	case "gowalla":
		return gen.GowallaPreset, nil
	case "urban":
		return gen.UrbanPreset, nil
	}
	return gen.Preset{}, fmt.Errorf("no preset %q", name)
}

// world is what the op generators know about the dataset: the same
// (preset, n, datasetSeed) dataset the server synthesizes, read through the internal
// package because the public Dataset does not expose edges.
type world struct {
	ds      *dataset.Dataset
	located []int32
	cities  int // number of distinct label bits (0 = unlabeled)
}

func newWorld(s spec) (*world, error) {
	p, err := presetByName(s.preset)
	if err != nil {
		return nil, err
	}
	ds, err := p.Dataset(s.n, datasetSeed)
	if err != nil {
		return nil, err
	}
	w := &world{ds: ds}
	var seen uint64
	for id, ok := range ds.Located {
		if ok {
			w.located = append(w.located, int32(id))
		}
		seen |= ds.LabelsOf(int32(id))
	}
	if len(w.located) < 2 {
		return nil, fmt.Errorf("dataset has %d located users", len(w.located))
	}
	w.cities = bits.Len64(seen)
	return w, nil
}

type opKind int

const (
	opQuery opKind = iota
	opMoves
	opEdges
	numOpKinds
)

var opKindName = [numOpKinds]string{"query", "moves", "edges"}

type moveOp struct {
	ID   int32   `json:"id"`
	X, Y float64 // raw coordinates
}

type edgeOp struct {
	U, V int32
	W    float64 // raw weight
}

// op is one request. The JSON form is what the determinism test compares.
type op struct {
	Kind   opKind   `json:"kind"`
	Q      int32    `json:"q,omitempty"`
	Labels []int    `json:"labels,omitempty"`
	Moves  []moveOp `json:"moves,omitempty"`
	Edges  []edgeOp `json:"edges,omitempty"`
	// SubMove marks a /moves request that carries the SSE subscriber's own
	// move, the send the notify latency is timed from.
	SubMove bool `json:"sub_move,omitempty"`
}

// path returns the request line of a query op.
func (o op) path() string {
	p := "/query?q=" + strconv.Itoa(int(o.Q)) + "&k=" + strconv.Itoa(queryK) +
		"&alpha=" + strconv.FormatFloat(queryAlpha, 'g', -1, 64)
	if len(o.Labels) > 0 {
		p += "&labels="
		for i, l := range o.Labels {
			if i > 0 {
				p += ","
			}
			p += strconv.Itoa(l)
		}
	}
	return p
}

// filterMask is the query's label filter as the engine takes it.
func (o op) filterMask() uint64 {
	var m uint64
	for _, l := range o.Labels {
		m |= 1 << uint(l)
	}
	return m
}

// opGen produces one stream's ops. All randomness flows from the run seed and
// the stream index, and each op consumes a number of draws that depends only
// on earlier draws, so op i is the same whatever the count generated: a
// faster server sees a longer prefix of the same list.
type opGen struct {
	w       *world
	ss      streamSpec
	rng     *rand.Rand
	i       int
	subUser int32
}

func newOpGen(w *world, ss streamSpec, seed int64, stream int) *opGen {
	g := &opGen{w: w, ss: ss, rng: rand.New(rand.NewSource(seed*1000003 + int64(stream) + 1))}
	// The subscriber is drawn first so it is fixed for the stream.
	g.subUser = g.randLocated()
	return g
}

func (g *opGen) randLocated() int32 { return g.w.located[g.rng.Intn(len(g.w.located))] }

func (g *opGen) next() op {
	i := g.i
	g.i++
	if g.ss.query {
		o := op{Kind: opQuery, Q: g.randLocated()}
		if g.ss.filtered && i%2 == 1 && g.w.cities > 0 {
			city := bits.TrailingZeros64(g.w.ds.LabelsOf(o.Q)) % g.w.cities
			o.Labels = []int{city, (city + 1) % g.w.cities}
		}
		return o
	}
	if g.ss.edgeEvery > 0 && i%g.ss.edgeEvery == g.ss.edgeEvery-1 {
		o := op{Kind: opEdges, Edges: make([]edgeOp, 0, g.ss.edges)}
		for len(o.Edges) < g.ss.edges {
			if e, ok := g.randEdge(); ok {
				o.Edges = append(o.Edges, e)
			}
		}
		return o
	}
	o := op{Kind: opMoves, Moves: make([]moveOp, g.ss.moves)}
	for j := range o.Moves {
		o.Moves[j] = g.randMove(g.randLocated())
	}
	if g.ss.subEvery > 0 && i%g.ss.subEvery == 0 {
		o.Moves[0] = g.randMove(g.subUser)
		o.SubMove = true
	}
	return o
}

// randMove sends a user next to where some other user lives: moves follow
// the dataset's own clustering instead of spreading users uniformly.
func (g *opGen) randMove(id int32) moveOp {
	norm := g.w.ds.Norms.Spatial
	at := g.w.ds.Pts[g.randLocated()]
	return moveOp{
		ID: id,
		X:  (at.X + g.rng.NormFloat64()*1e-3) * norm,
		Y:  (at.Y + g.rng.NormFloat64()*1e-3) * norm,
	}
}

// randEdge closes a triangle, the way most new friendships form: u befriends
// a friend of a friend (or, when the walk returns to u, the tie to the
// intermediate friend is reweighted). The weight is the intermediate tie's,
// jittered, so new edges sit on the dataset's own weight scale.
func (g *opGen) randEdge() (edgeOp, bool) {
	u := int32(g.rng.Intn(g.w.ds.NumUsers()))
	nb, ws := g.w.ds.G.Neighbors(u)
	if len(nb) == 0 {
		return edgeOp{}, false
	}
	j := g.rng.Intn(len(nb))
	mid, w := nb[j], ws[j]
	nb2, _ := g.w.ds.G.Neighbors(mid)
	v := nb2[g.rng.Intn(len(nb2))]
	if v == u {
		v = mid
	}
	return edgeOp{U: u, V: v, W: w * (0.5 + g.rng.Float64()) * g.w.ds.Norms.Social}, true
}
