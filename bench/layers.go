package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"ssrq"
	"ssrq/internal/core"
	"ssrq/internal/fof"
	"ssrq/internal/follower"
	"ssrq/internal/graph"
	"ssrq/internal/httpapi"
	"ssrq/internal/landmark"
	"ssrq/internal/oplog"
	"ssrq/internal/pqueue"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
	"ssrq/internal/wal"
)

// This file holds the per-layer probes of the traced run. They measure each
// layer from outside: the program carries no instrumentation, so a probe
// times calls into a layer's public functions on a twin engine built from
// the same generated inputs, sized by the counters the served answers carry.
// What cannot be reached that way is left in core.ais.self_ms.

// sink keeps probe loops from being optimized away.
var sink float64

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeIt runs f once and returns how long it took.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// twinOptions are the core options ssrq.NewEngine derives from the options
// the server is built with.
func twinOptions() core.Options { return core.Options{Seed: datasetSeed} }

// normalized converts the bench's raw-unit ops to the engine-internal form,
// the way the public Engine does.
func normalizedMoves(w *world, o op) []core.Update {
	norm := w.ds.Norms.Spatial
	ups := make([]core.Update, len(o.Moves))
	for i, m := range o.Moves {
		ups[i] = core.Update{ID: m.ID, To: spatial.Point{X: m.X / norm, Y: m.Y / norm}}
	}
	return ups
}

func normalizedEdges(w *world, o op) []core.Update {
	ups := make([]core.Update, len(o.Edges))
	for i, e := range o.Edges {
		ups[i] = core.Update{Kind: core.OpEdgeUpsert, U: e.U, V: e.V, W: e.W / w.ds.Norms.Social}
	}
	return ups
}

// liveStats is what the served engine says about itself once traffic stops.
type liveStats struct {
	upd ssrq.UpdateStats
	soc ssrq.SocialStats
	fan ssrq.FanoutStats
	imb float64
	dur *ssrq.DurabilityStats
	sub ssrq.SubscriptionStats
}

func readLive(eng *ssrq.Engine) liveStats {
	return liveStats{
		upd: eng.UpdateStats(), soc: eng.SocialStats(), fan: eng.FanoutStats(), imb: eng.Imbalance(),
		dur: eng.DurabilityStats(), sub: eng.SubscriptionStats(),
	}
}

// reportLive turns the served engine's counters into metrics.
func reportLive(s spec, ls liveStats, m *metricSet) {
	m.set("core.epochs", float64(ls.upd.Epoch), 0)
	if ls.upd.AppliedUpdates > 0 {
		m.set("core.update_coalesced_ratio", float64(ls.upd.CoalescedUpdates)/float64(ls.upd.AppliedUpdates), int(ls.upd.AppliedUpdates))
	}
	m.set("landmark.repairs", float64(ls.soc.LandmarkRepairs), 0)
	m.set("landmark.disables", float64(ls.soc.LandmarkDisables), 0)
	m.set("landmark.rebuilds", float64(ls.soc.LandmarkRebuilds), 0)
	m.set("landmark.forced_installs", float64(ls.soc.LandmarkForcedInstalls), 0)
	if s.shards > 1 && ls.fan.Queries > 0 {
		visits := ls.fan.ShardsQueried + ls.fan.ShardsPruned + ls.fan.ShardsEmpty
		m.set("shard.fanout_per_q", float64(ls.fan.ShardsQueried)/float64(ls.fan.Queries), int(ls.fan.Queries))
		m.set("shard.pruned_ratio", float64(ls.fan.ShardsPruned)/float64(visits), int(visits))
		m.set("shard.imbalance", ls.imb, 0)
	}
	if ls.dur != nil {
		// Retained segments over the records they hold: checkpoints prune
		// older segments, so the whole history is not on disk to be weighed.
		if kept := int64(ls.dur.LastSeq) - int64(ls.dur.FirstSeq) + 1; ls.dur.FirstSeq > 0 && kept > 0 {
			m.set("wal.bytes_per_op", float64(ls.dur.SizeBytes)/float64(kept), int(kept))
		}
		m.set("wal.checkpoints", float64(ls.dur.Checkpoints), 0)
		m.set("wal.segments", float64(ls.dur.Segments), 0)
		m.set("wal.append_errors", float64(ls.dur.AppendErrors), 0)
	}
	if rounds := ls.sub.Rounds; rounds > 0 && s.standingSubs > 0 {
		if pairs := ls.sub.Skips + ls.sub.Evals; pairs > 0 {
			m.set("sub.skip_ratio", float64(ls.sub.Skips)/float64(pairs), int(pairs))
		}
		m.set("sub.evals_per_round", float64(ls.sub.Evals)/float64(rounds), int(rounds))
		m.set("sub.notified", float64(ls.sub.Notified), 0)
	}
}

// codecUsers is the size of the dataset the query codec is measured on.
const codecUsers = 800

// probeQueryCodec measures what the HTTP layer adds to a query: the handler
// on an in-memory recorder against the same call made on the engine directly.
// A search on the workload's own dataset takes milliseconds and varies by
// more than the codec costs, so the pair is run on a dataset small enough
// that the search is cheaper than its codec; the request and the response (k
// entries and the counters) are the same size either way. Each side keeps the
// fastest of a few runs.
func probeQueryCodec(s spec, m *metricSet) error {
	ds, err := ssrq.Synthesize(s.preset, codecUsers, datasetSeed)
	if err != nil {
		return err
	}
	eng, err := ssrq.NewEngine(ds, &ssrq.Options{Seed: datasetSeed})
	if err != nil {
		return err
	}
	defer eng.Close()
	api := httpapi.New(eng)
	prm := ssrq.Params{K: queryK, Alpha: queryAlpha}
	const reps = 5
	var diff []float64
	for id := int32(0); id < codecUsers && len(diff) < 50; id++ {
		if _, ok := eng.UserLocation(id); !ok {
			continue
		}
		req := op{Kind: opQuery, Q: id}.request("")
		viaHandler, direct := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for i := 0; i < reps; i++ {
			viaHandler = min(viaHandler, timeIt(func() { api.ServeHTTP(httptest.NewRecorder(), req) }))
			direct = min(direct, timeIt(func() { _, err = eng.Query(ssrq.AIS, id, prm) }))
			if err != nil {
				return err
			}
		}
		diff = append(diff, us(viaHandler-direct))
	}
	m.set("httpapi.query_codec_us", median(diff), len(diff)*reps)
	return nil
}

// probeMovesCodec is the write side of probeQueryCodec, on the served engine
// after traffic has stopped: the last acknowledged /moves batch through the
// handler and through the engine, which leaves every position where its
// acknowledgement said it is.
func probeMovesCodec(p *pass, m *metricSet) {
	api, eng := p.sv.api, p.sv.eng
	if p.lastMoves == nil {
		return
	}
	last := *p.lastMoves
	ups := make([]ssrq.Update, len(last.Moves))
	for i, mv := range last.Moves {
		ups[i] = ssrq.Update{ID: mv.ID, To: ssrq.Point{X: mv.X, Y: mv.Y}}
	}
	// Both sides end in the same journal write and fsync, whose jitter is
	// larger than the codec; the fastest of several runs of each side has the
	// least of it.
	viaHandler, direct := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	const reps = 9
	for i := 0; i < reps; i++ {
		viaHandler = min(viaHandler, timeIt(func() { api.ServeHTTP(httptest.NewRecorder(), last.request("")) }))
		direct = min(direct, timeIt(func() {
			if err := eng.ApplyUpdates(ups); err != nil {
				panic(err) // the same moves were accepted over HTTP
			}
		}))
	}
	m.set("httpapi.moves_codec_us_per_move", us(viaHandler-direct)/float64(len(ups)), reps)
}

// probeSubSync measures the subscription barrier: one published epoch, then
// the time until every standing subscription has been through its round. The
// moved users' new positions are entered as acknowledged, so the recovery
// check still holds.
func probeSubSync(p *pass, m *metricSet) {
	if p.lastMoves == nil || p.spec.standingSubs == 0 {
		return
	}
	var lat []float64
	for i := 0; i < 10 && i < len(p.lastMoves.Moves); i++ {
		mv := p.lastMoves.Moves[i]
		mv.X += float64(i+1) * 1e-7
		if err := p.sv.eng.MoveUser(mv.ID, ssrq.Point{X: mv.X, Y: mv.Y}); err != nil {
			panic(err) // a user and position the server already accepted
		}
		p.acked[mv.ID] = mv
		lat = append(lat, ms(timeIt(p.sv.eng.SyncSubscriptions)))
	}
	m.set("sub.sync_ms", median(lat), len(lat))
}

// unitCosts are per-call costs of the small hot primitives, measured in
// loops long enough to time; the per-query estimates multiply them by the
// counters of the replayed queries.
type unitCosts struct {
	lowerBoundNs float64
	pushPopNs    float64
}

func probeUnits(twin *core.Engine, m *metricSet) unitCosts {
	var u unitCosts
	lm := twin.Landmarks()
	n := int32(lm.NumVertices())
	rng := rand.New(rand.NewSource(datasetSeed))
	const calls = 400000
	q := rng.Int31n(n)
	d := timeIt(func() {
		v := q
		for i := 0; i < calls; i++ {
			v = (v*1103515245 + 12345) & 0x7fffffff % n
			sink += lm.LowerBound(q, v)
		}
	})
	u.lowerBoundNs = float64(d.Nanoseconds()) / calls
	m.set("landmark.lower_bound_ns", u.lowerBoundNs, calls)

	// A heap of a few thousand entries is what an AIS search holds.
	h := pqueue.NewHeap[int32](4096)
	for i := 0; i < 4096; i++ {
		h.Push(rng.Float64(), int64(i), int32(i))
	}
	const pairs = 400000
	d = timeIt(func() {
		for i := 0; i < pairs; i++ {
			h.Push(rng.Float64(), int64(i), int32(i))
			e, _ := h.Pop()
			sink += e.Key
		}
	})
	u.pushPopNs = float64(d.Nanoseconds()) / pairs
	m.set("pqueue.push_pop_ns", u.pushPopNs, pairs)
	return u
}

// handlerSpans indexes the traced pass's handler spans by request.
func handlerSpans(spans []span) map[uint64]span {
	out := make(map[uint64]span)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "httpapi/") {
			out[s.Req] = s
		}
	}
	return out
}

// probeQueries replays the sampled queries on the twin: every algorithm for
// the ordering check, then the layer calls an AIS search is made of, sized by
// that query's own counters and recorded as children of its span.
func probeQueries(p *pass, w *world, twin *core.Engine, u unitCosts, rec *recorder, m *metricSet) (aisSpans []uint64) {
	refs := p.replays[opQuery]
	if len(refs) == 0 {
		return nil
	}
	handlers := handlerSpans(rec.snapshot())
	n := w.ds.NumUsers()
	sn := twin.Snapshot()
	g, lm, grid := sn.SocialGraph(), sn.Landmarks(), sn.Grid()
	layout := grid.Layout()
	leaf := layout.LeafLevel()
	fwdPool, revPool := graph.NewAStarPool(n), graph.NewAStarPool(n)
	var scratch fof.Scratch
	var cellBuf []float64

	algos := []struct {
		name string
		algo core.Algorithm
	}{{"ais", core.AIS}, {"tsa", core.TSA}, {"sfa", core.SFA}, {"spa", core.SPA}, {"brute", core.BruteForce}}
	lat := make(map[string][]float64)
	pops := make(map[string][]float64)
	var (
		socPops, revPops, userPops, cellPops, distCalls, reinserts, useful []float64
		fwdMs, fwdNsPerPop, nnMs, nnNsPerPop, p2pUs, slack                 []float64
		boundMs, cellUs, heapMs, armUs, tightened, prunes                  []float64
	)
	for _, r := range refs {
		q := r.op.Q
		prm := core.Params{K: queryK, Alpha: queryAlpha, Filter: r.op.filterMask()}
		var ais, tsa *core.Result
		var aisDur time.Duration
		for _, a := range algos {
			var res *core.Result
			var err error
			d := timeIt(func() { res, err = twin.Query(a.algo, q, prm) })
			if err != nil {
				panic(fmt.Sprintf("twin %s query %d: %v", a.name, q, err)) // served engine answered it
			}
			lat[a.name] = append(lat[a.name], ms(d))
			pops[a.name] = append(pops[a.name], res.Stats.PopRatio(n))
			switch a.algo {
			case core.AIS:
				ais, aisDur = res, d
			case core.TSA:
				tsa = res
			}
		}
		st := ais.Stats
		socPops = append(socPops, float64(st.SocialPops))
		revPops = append(revPops, float64(st.ReversePops))
		userPops = append(userPops, float64(st.IndexUserPops))
		cellPops = append(cellPops, float64(st.IndexCellPops))
		distCalls = append(distCalls, float64(st.GraphDistCalls))
		reinserts = append(reinserts, float64(st.Reinserts))
		tightened = append(tightened, float64(st.FoFTightened))
		prunes = append(prunes, float64(st.LabelCellPrunes))
		if st.GraphDistCalls > 0 {
			useful = append(useful, float64(len(ais.Entries))/float64(st.GraphDistCalls))
		}

		// graph: the shared forward Dijkstra, to this query's forward pops.
		fwd := st.SocialPops - st.ReversePops
		dFwd := timeIt(func() {
			it := graph.NewDijkstraIterator(g, q)
			for i := 0; i < fwd; i++ {
				if _, d, ok := it.Next(); ok {
					sink += d
				}
			}
		})
		fwdMs = append(fwdMs, ms(dFwd))
		if fwd > 0 {
			fwdNsPerPop = append(fwdNsPerPop, float64(dFwd.Nanoseconds())/float64(fwd))
		}
		// graph: point-to-point ALT to each reported user, the cost of one
		// unshared exact evaluation.
		hToQ := lm.HeuristicTo(q)
		for _, e := range ais.Entries {
			d := timeIt(func() {
				sink += graph.BidirectionalDijkstra(g, q, e.ID, lm.HeuristicTo(e.ID), hToQ, fwdPool, revPool).Dist
			})
			p2pUs = append(p2pUs, us(d))
			if e.P > 0 {
				slack = append(slack, lm.LowerBound(q, e.ID)/e.P)
			}
		}
		// aggindex: the level-0 batch plus one cell bound per popped cell.
		qvec := lm.VertexVector(q)
		cells := int32(layout.NumCells(leaf))
		dCell := timeIt(func() {
			cellBuf = sn.SocialLowerBoundsInto(0, qvec, cellBuf)
			for i := int32(0); i < int32(st.IndexCellPops); i++ {
				sink += sn.SocialLowerBound(leaf, i%cells, qvec)
			}
		})
		cellUs = append(cellUs, us(dCell))
		// fof: arming the 2-hop bound for this query user.
		var dArm time.Duration
		if ix := twin.FoFIndex(); ix != nil {
			dArm = timeIt(func() { scratch.Arm(ix, g, q, fof.DefaultBudget) })
			scratch.Release()
			armUs = append(armUs, us(dArm))
		}
		// landmark, pqueue: unit cost times this query's counts.
		dBound := time.Duration(u.lowerBoundNs * float64(st.IndexUserPops))
		dHeap := time.Duration(u.pushPopNs * float64(st.IndexUserPops+st.IndexCellPops+st.Reinserts))
		boundMs = append(boundMs, ms(dBound))
		heapMs = append(heapMs, ms(dHeap))
		// spatial: the NN stream TSA consumed for the same query.
		if qpt, np := grid.Point(q), tsa.Stats.SpatialPops; np > 0 {
			d := timeIt(func() {
				it := grid.NewNN(qpt)
				for i := 0; i < np; i++ {
					if _, dist, ok := it.Next(); ok {
						sink += dist
					}
				}
			})
			nnMs = append(nnMs, ms(d))
			nnNsPerPop = append(nnNsPerPop, float64(d.Nanoseconds())/float64(np))
		}

		// The spans: the AIS search under the handler that served the same
		// query, its layer calls end to end inside it.
		h := handlers[r.req]
		id, _ := rec.replay(h.ID, r.req, "core.ais.query", h.StartNs, aisDur)
		at := h.StartNs
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"graph.fwd", dFwd}, {"aggindex.cell_bounds", dCell}, {"landmark.bounds", dBound}, {"pqueue.heap", dHeap}, {"fof.arm", dArm}} {
			_, at = rec.replay(id, r.req, c.name, at, c.d)
		}
		aisSpans = append(aisSpans, id)
	}

	for _, a := range algos {
		m.set("core."+a.name+".query_p50_ms", median(lat[a.name]), len(lat[a.name]))
	}
	for _, name := range []string{"ais", "tsa", "sfa"} {
		m.set("core."+name+".pop_ratio", mean(pops[name]), len(pops[name]))
	}
	k := len(refs)
	m.set("core.ais.social_pops_per_q", mean(socPops), k)
	m.set("core.ais.reverse_pops_per_q", mean(revPops), k)
	m.set("core.ais.index_user_pops_per_q", mean(userPops), k)
	m.set("core.ais.index_cell_pops_per_q", mean(cellPops), k)
	m.set("core.ais.graphdist_calls_per_q", mean(distCalls), k)
	m.set("core.ais.reinserts_per_q", mean(reinserts), k)
	m.set("core.ais.useful_eval_ratio", mean(useful), len(useful))
	m.set("graph.fwd_ms_per_q", median(fwdMs), k)
	m.set("graph.dijkstra_ns_per_pop", median(fwdNsPerPop), len(fwdNsPerPop))
	m.set("graph.p2p_us", median(p2pUs), len(p2pUs))
	m.set("landmark.slack_ratio", mean(slack), len(slack))
	m.set("landmark.bound_ms_per_q", median(boundMs), k)
	m.set("aggindex.cell_bounds_us_per_q", median(cellUs), k)
	m.set("aggindex.label_cell_prunes_per_q", mean(prunes), k)
	m.set("pqueue.heap_ms_per_q", median(heapMs), k)
	m.set("fof.arm_us", median(armUs), len(armUs))
	m.set("fof.tightened_per_q", mean(tightened), k)
	m.set("spatial.nn_ms_per_q", median(nnMs), len(nnMs))
	m.set("spatial.nn_ns_per_pop", median(nnNsPerPop), len(nnNsPerPop))

	if !raceEnabled {
		// Allocation count of the serving path: the sampled AIS queries
		// again, between two reads of the allocator's counter.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range refs {
			prm := core.Params{K: queryK, Alpha: queryAlpha, Filter: r.op.filterMask()}
			if _, err := twin.Query(core.AIS, r.op.Q, prm); err != nil {
				panic(err) // answered a moment ago
			}
		}
		runtime.ReadMemStats(&after)
		m.set("core.ais.allocs_per_q", float64(after.Mallocs-before.Mallocs)/float64(k), k)
	}
	return aisSpans
}

// probeUpdates replays the sampled write batches on the twin: bulk apply,
// single-op epochs and edge upserts through the engine, and raw overlay edits
// beneath it.
func probeUpdates(p *pass, w *world, twin *core.Engine, rec *recorder, m *metricSet) {
	handlers := handlerSpans(rec.snapshot())
	var perMove, publish []float64
	for _, r := range p.replays[opMoves] {
		ups := normalizedMoves(w, r.op)
		d := timeIt(func() {
			if err := twin.ApplyUpdates(ups); err != nil {
				panic(err) // the served engine accepted the same batch
			}
		})
		perMove = append(perMove, us(d)/float64(len(ups)))
		h := handlers[r.req]
		rec.replay(h.ID, r.req, "core.apply_updates", h.StartNs, d)
		// One-op epochs: what publishing costs with nothing to amortize it.
		for _, one := range ups[:min(3, len(ups))] {
			d := timeIt(func() {
				if err := twin.ApplyUpdates([]core.Update{one}); err != nil {
					panic(err)
				}
			})
			publish = append(publish, us(d))
		}
	}
	if len(perMove) > 0 {
		m.set("core.apply_us_per_move", median(perMove), len(perMove))
		m.set("core.epoch_publish_us", median(publish), len(publish))
	}
	ov := graph.NewOverlay(w.ds.G)
	var edgeUs, setNs []float64
	for _, r := range p.replays[opEdges] {
		for _, e := range normalizedEdges(w, r.op) {
			d := timeIt(func() {
				if err := twin.AddFriend(e.U, e.V, e.W); err != nil {
					panic(err)
				}
			})
			edgeUs = append(edgeUs, us(d))
			d = timeIt(func() {
				if _, err := ov.SetEdge(e.U, e.V, e.W); err != nil {
					panic(err)
				}
			})
			setNs = append(setNs, float64(d.Nanoseconds()))
		}
	}
	if len(edgeUs) > 0 {
		m.set("aggindex.edge_apply_us_per_op", median(edgeUs), len(edgeUs))
		m.set("graph.overlay_setedge_ns", median(setNs), len(setNs))
	}
}

// probeShard builds the sharded twin and runs the sampled queries through
// it, against the monolithic twin's time for the same queries.
func probeShard(p *pass, w *world, seed int64, monoP50Ms float64, m *metricSet) error {
	se, err := shard.New(w.ds, p.spec.shards, twinOptions())
	if err != nil {
		return err
	}
	defer se.Close()
	var lat []float64
	var lists [][]core.Entry
	for _, r := range p.replays[opQuery] {
		prm := core.Params{K: queryK, Alpha: queryAlpha, Filter: r.op.filterMask()}
		var res *core.Result
		d := timeIt(func() { res, err = se.Query(core.AIS, r.op.Q, prm) })
		if err != nil {
			return err
		}
		lat = append(lat, ms(d))
		if len(lists) < p.spec.shards {
			lists = append(lists, res.Entries)
		}
	}
	if len(lat) > 0 && monoP50Ms > 0 {
		m.set("shard.overhead_ratio", median(lat)/monoP50Ms, len(lat))
	}
	if len(lists) > 0 {
		const merges = 2000
		d := timeIt(func() {
			for i := 0; i < merges; i++ {
				sink += float64(len(shard.MergeTopK(queryK, lists...)))
			}
		})
		m.set("shard.merge_us", us(d)/merges, merges)
	}
	// Routing cost: one bulk batch of moves through the shard router.
	g := newOpGen(w, streamSpec{moves: 256}, seed, 99)
	ups := normalizedMoves(w, g.next())
	d := timeIt(func() { err = se.ApplyUpdates(ups) })
	if err != nil {
		return err
	}
	m.set("shard.route_us_per_move", us(d)/float64(len(ups)), len(ups))
	return nil
}

// sampledRecords are the journal records of the sampled write batches.
func sampledRecords(p *pass, w *world) []oplog.Record {
	var ups []core.Update
	for _, r := range p.replays[opMoves] {
		ups = append(ups, normalizedMoves(w, r.op)...)
	}
	for _, r := range p.replays[opEdges] {
		ups = append(ups, normalizedEdges(w, r.op)...)
	}
	return oplog.FromOps(ups)
}

// probeOplog times the record codec over the sampled batches.
func probeOplog(recs []oplog.Record, m *metricSet) error {
	if len(recs) == 0 {
		return nil
	}
	const rounds = 50
	var buf []byte
	d := timeIt(func() {
		for i := 0; i < rounds; i++ {
			buf = buf[:0]
			for _, r := range recs {
				buf = r.Append(buf)
			}
		}
	})
	total := rounds * len(recs)
	m.set("oplog.encode_ns_per_rec", float64(d.Nanoseconds())/float64(total), total)
	m.set("oplog.bytes_per_rec", float64(len(buf))/float64(len(recs)), len(recs))
	var derr error
	d = timeIt(func() {
		for i := 0; i < rounds && derr == nil; i++ {
			for b := buf; len(b) > 0 && derr == nil; {
				var n int
				_, n, derr = oplog.Decode(b)
				b = b[n:]
			}
		}
	})
	if derr != nil {
		return fmt.Errorf("oplog: decode of own encoding: %w", derr)
	}
	m.set("oplog.decode_ns_per_rec", float64(d.Nanoseconds())/float64(total), total)
	return nil
}

// probeWALAppend times a 64-record group commit with and without the fsync,
// on fresh logs beside the served one.
func probeWALAppend(recs []oplog.Record, tmpRoot string, m *metricSet) error {
	if len(recs) < 64 {
		return nil
	}
	appendUs := func(policy wal.FsyncPolicy) (float64, error) {
		dir, err := os.MkdirTemp(tmpRoot, "walprobe-")
		if err != nil {
			return 0, err
		}
		log, _, err := wal.Open(dir, wal.Options{Fsync: policy})
		if err != nil {
			return 0, err
		}
		var lat []float64
		for i := 0; i < 30 && err == nil; i++ {
			batch := append([]oplog.Record(nil), recs[:64]...)
			lat = append(lat, us(timeIt(func() { _, _, err = log.Append(batch) })))
		}
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		return median(lat), err
	}
	syncUs, err := appendUs(wal.FsyncBatch)
	if err != nil {
		return err
	}
	nosyncUs, err := appendUs(wal.FsyncOff)
	if err != nil {
		return err
	}
	m.set("wal.append_sync_us_per_batch", syncUs, 30)
	m.set("wal.append_nosync_us_per_batch", nosyncUs, 30)
	if syncUs > 0 {
		m.set("wal.fsync_share", math.Max(0, 1-nosyncUs/syncUs), 30)
	}
	return nil
}

// probeReplay loads what the served engine left on disk into a fresh engine
// the way recovery does, timing the checkpoint part and the tail part apart.
func probeReplay(w *world, walDir string, m *metricSet) error {
	rec, err := wal.ScanDir(walDir)
	if err != nil {
		return err
	}
	fresh, err := core.NewEngine(w.ds, twinOptions())
	if err != nil {
		return err
	}
	defer fresh.Close()
	apply := func(recs []oplog.Record) (time.Duration, error) {
		var err error
		d := timeIt(func() {
			// Recovery's own chunking (ssrq.replayChunk).
			for ; len(recs) > 0 && err == nil; recs = recs[min(4096, len(recs)):] {
				err = fresh.ApplyUpdates(oplog.Ops(recs[:min(4096, len(recs))]))
			}
		})
		return d, err
	}
	if n := len(rec.CheckpointRecords); n > 0 {
		d, err := apply(rec.CheckpointRecords)
		if err != nil {
			return err
		}
		m.set("wal.checkpoint_load_ops_per_s", float64(n)/d.Seconds(), n)
	}
	if n := len(rec.TailRecords); n > 0 {
		d, err := apply(rec.TailRecords)
		if err != nil {
			return err
		}
		m.set("wal.replay_ops_per_s", float64(n)/d.Seconds(), n)
	}
	return nil
}

// probeFollower brings a fresh read-only replica up to the end of the served
// engine's journal through the shared-directory transport.
func probeFollower(sv *server, m *metricSet) error {
	start := time.Now()
	f, err := follower.New(sv.ds, follower.FileSource{Dir: sv.walDir},
		&follower.Options{Engine: &ssrq.Options{Seed: datasetSeed}, Manual: true})
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		n, err := f.Pull()
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	st := f.Stats()
	if st.AppliedSeq > 0 {
		m.set("follower.catchup_ops_per_s", float64(st.AppliedSeq)/time.Since(start).Seconds(), int(st.AppliedSeq))
	}
	m.set("follower.final_lag_ops", float64(st.LagOps), 0)
	return nil
}

// probeLandmarkSelect times landmark selection alone, the part of engine
// construction that runs M full Dijkstras.
func probeLandmarkSelect(w *world, twin *core.Engine, m *metricSet) error {
	o := twin.Options()
	var err error
	d := timeIt(func() { _, err = landmark.Select(w.ds.G, o.NumLandmarks, o.LandmarkStrategy, datasetSeed) })
	if err != nil {
		return err
	}
	m.set("landmark.select_s", d.Seconds(), 1)
	return nil
}
