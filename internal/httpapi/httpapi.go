// Package httpapi serves SSRQ over HTTP — the service layer of the
// reproduction's "company/friend recommendation" motivating applications
// (§1). The engine is internally synchronized through epoch snapshots
// (queries are lock-free against the latest published epoch; updates build
// the next epoch copy-on-write), so handlers call it directly with no
// server-side locking. A query is one request: concurrent /query
// connections are how queries run in parallel. /moves and /edges hand the
// engine one batch per request, queued, or with flush applied before the
// response; /stats reports the epoch number, pending-update depth and
// snapshot age alongside the dataset statistics.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ssrq"
)

// Server is an http.Handler exposing one engine.
type Server struct {
	eng *ssrq.Engine
	mux *http.ServeMux
	// heartbeat is the SSE idle-stream ping interval; 0 = default 15s.
	heartbeat time.Duration
	// followerStats non-nil puts the server in read-only replica mode; it
	// reports (applied seq, leader seq) for /stats. See SetFollower.
	followerStats func() (applied, leader uint64)
}

// maxMoves bounds one /moves request.
const maxMoves = 65536

// maxEdges bounds one /edges request.
const maxEdges = 65536

// Request body caps, in bytes. They bound the allocation, not just the
// parsed length: a maxMoves-sized /moves or maxEdges-sized /edges is under
// 8 MiB of JSON, and a /move or /unlocate body is one small object.
const (
	maxBulkBody  = 8 << 20
	maxPointBody = 4 << 10
)

// New builds the handler.
func New(eng *ssrq.Engine) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /user/{id}", s.handleUser)
	s.mux.HandleFunc("POST /move", s.handleMove)
	s.mux.HandleFunc("POST /moves", s.handleMoves)
	s.mux.HandleFunc("POST /edges", s.handleEdges)
	s.mux.HandleFunc("POST /unlocate", s.handleUnlocate)
	s.mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /wal/bootstrap", s.handleWALBootstrap)
	s.mux.HandleFunc("GET /wal/stream", s.handleWALStream)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryResponse is the wire form of a ranked result.
type queryResponse struct {
	Query   int32        `json:"query"`
	K       int          `json:"k"`
	Alpha   float64      `json:"alpha"`
	Algo    string       `json:"algo"`
	Entries []queryEntry `json:"entries"`
	Stats   queryStats   `json:"stats"`
}

type queryEntry struct {
	ID      int32   `json:"id"`
	F       float64 `json:"f"`
	Social  float64 `json:"social"`
	Spatial float64 `json:"spatial"`
}

type queryStats struct {
	SocialPops      int `json:"social_pops"`
	ReversePops     int `json:"reverse_pops,omitempty"`
	SpatialPops     int `json:"spatial_pops"`
	IndexUserPops   int `json:"index_user_pops"`
	DistCalls       int `json:"dist_calls"`
	BoundedStops    int `json:"bounded_stops,omitempty"`
	Restarts        int `json:"graphdist_restarts,omitempty"`
	LabelCellPrunes int `json:"label_cell_prunes,omitempty"`
	LabelSkips      int `json:"label_skips,omitempty"`
}

// queryParams parses and validates the shared (user, k, alpha, labels) query
// surface of /query and /subscribe, pinning the error semantics at the
// handler layer: malformed or domain-violating parameters (k < 1, alpha
// outside (0,1) — including NaN, which ParseFloat accepts — bad label
// indices) are 400s, an out-of-range user is a 404. Engine-level failures
// past this point (e.g. an unlocated query user) remain 422s.
func (s *Server) queryParams(r *http.Request, userParam string) (int, ssrq.Params, int, error) {
	q, err := intParam(r, userParam, -1)
	if err != nil {
		return 0, ssrq.Params{}, http.StatusBadRequest, err
	}
	if q < 0 || q >= s.eng.Dataset().NumUsers() {
		return 0, ssrq.Params{}, http.StatusNotFound, fmt.Errorf("unknown user %d", q)
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		return 0, ssrq.Params{}, http.StatusBadRequest, err
	}
	alpha := 0.3
	if raw := r.URL.Query().Get("alpha"); raw != "" {
		alpha, err = strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, ssrq.Params{}, http.StatusBadRequest, fmt.Errorf("bad alpha: %w", err)
		}
	}
	filter, err := parseLabels(r.URL.Query().Get("labels"))
	if err != nil {
		return 0, ssrq.Params{}, http.StatusBadRequest, err
	}
	prm := ssrq.Params{K: k, Alpha: alpha, Filter: filter}
	if err := prm.Validate(); err != nil {
		return 0, ssrq.Params{}, http.StatusBadRequest, err
	}
	return q, prm, http.StatusOK, nil
}

// parseLabels parses the labels= wire format — comma-separated label indices
// in [0,64), e.g. "0,3,17" — into a filter bitmask (0 when absent: no
// filtering). A filtered query reports only users carrying at least one of
// the requested labels.
func parseLabels(raw string) (uint64, error) {
	if raw == "" {
		return 0, nil
	}
	var m uint64
	for _, part := range strings.Split(raw, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return 0, fmt.Errorf("bad label index %q", part)
		}
		if i < 0 || i > 63 {
			return 0, fmt.Errorf("label index %d out of [0,64)", i)
		}
		m |= 1 << uint(i)
	}
	return m, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, prm, code, err := s.queryParams(r, "q")
	if err != nil {
		httpError(w, code, err)
		return
	}
	algo := ssrq.AIS
	if raw := r.URL.Query().Get("algo"); raw != "" {
		if algo, err = ssrq.ParseAlgorithm(raw); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}

	res, err := s.eng.Query(algo, ssrq.UserID(q), prm)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, toQueryResponse(int32(q), prm.K, prm.Alpha, algo, res))
}

func toQueryResponse(q int32, k int, alpha float64, algo ssrq.Algorithm, res *ssrq.Result) queryResponse {
	resp := queryResponse{
		Query: q, K: k, Alpha: alpha, Algo: fmt.Sprint(algo),
		Entries: make([]queryEntry, len(res.Entries)),
		Stats: queryStats{
			SocialPops:      res.Stats.SocialPops,
			ReversePops:     res.Stats.ReversePops,
			SpatialPops:     res.Stats.SpatialPops,
			IndexUserPops:   res.Stats.IndexUserPops,
			DistCalls:       res.Stats.GraphDistCalls,
			BoundedStops:    res.Stats.BoundedStops,
			Restarts:        res.Stats.GraphDistRestarts,
			LabelCellPrunes: res.Stats.LabelCellPrunes,
			LabelSkips:      res.Stats.LabelSkips,
		},
	}
	for i, e := range res.Entries {
		resp.Entries[i] = queryEntry{ID: e.ID, F: e.F, Social: e.P, Spatial: e.D}
	}
	return resp
}

type userResponse struct {
	ID      int32    `json:"id"`
	Located bool     `json:"located"`
	X       *float64 `json:"x,omitempty"`
	Y       *float64 `json:"y,omitempty"`
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= s.eng.Dataset().NumUsers() {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown user %q", r.PathValue("id")))
		return
	}
	resp := userResponse{ID: int32(id)}
	if p, ok := s.eng.UserLocation(ssrq.UserID(id)); ok {
		resp.Located = true
		resp.X, resp.Y = &p.X, &p.Y
	}
	writeJSON(w, resp)
}

type moveRequest struct {
	ID int32   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	if s.denyIfFollower(w) {
		return
	}
	var req moveRequest
	if !decodeBody(w, r, maxPointBody, &req) {
		return
	}
	if req.ID < 0 || int(req.ID) >= s.eng.Dataset().NumUsers() {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown user %d", req.ID))
		return
	}
	// The engine rejects NaN/±Inf coordinates. JSON has no literal for them,
	// and an out-of-range number such as 1e999 never gets here:
	// encoding/json refuses it ("cannot unmarshal number 1e999"), a 400.
	if err := s.eng.MoveUser(req.ID, ssrq.Point{X: req.X, Y: req.Y}); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// movesRequest is a bulk location-update batch. Each item is a move, or a
// location removal when Remove is set. With Flush true the batch is applied
// synchronously and the request returns only after it — and every update
// queued before it — is applied and published (read-your-writes);
// otherwise the batch is queued on the engine's write queue and the
// response is 202 Accepted.
type movesRequest struct {
	Moves []moveItem `json:"moves"`
	Flush bool       `json:"flush,omitempty"`
}

type moveItem struct {
	ID     int32   `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Remove bool    `json:"remove,omitempty"`
}

type movesResponse struct {
	Accepted int    `json:"accepted"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

func (s *Server) handleMoves(w http.ResponseWriter, r *http.Request) {
	if s.denyIfFollower(w) {
		return
	}
	b := readBody(w, r, maxBulkBody)
	if b == nil {
		return
	}
	defer b.put()
	flush, err := b.decodeMoves()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	ups := b.moves
	if len(ups) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty moves"))
		return
	}
	if len(ups) > maxMoves {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%d moves exceeds limit %d", len(ups), maxMoves))
		return
	}
	// Validate everything before enqueuing anything, so a bad item rejects
	// the whole request instead of applying a prefix.
	n := s.eng.Dataset().NumUsers()
	for i, m := range ups {
		if m.ID < 0 || int(m.ID) >= n {
			httpError(w, http.StatusBadRequest, fmt.Errorf("move %d: unknown user %d", i, m.ID))
			return
		}
		if !m.Remove && !m.To.IsFinite() {
			httpError(w, http.StatusBadRequest, fmt.Errorf("move %d: non-finite coordinates (%v, %v)", i, m.To.X, m.To.Y))
			return
		}
	}
	resp := movesResponse{Accepted: len(ups)}
	if flush {
		// One request, one batch on the engine's queue: it applies after
		// every batch queued before it, in one journal commit and one epoch
		// per touched shard, so flush keeps its read-your-writes meaning.
		if err := s.eng.ApplyUpdates(ups); err != nil {
			writeError(w, err)
			return
		}
		resp.Epoch = s.eng.UpdateStats().Epoch
		writeJSON(w, resp)
		return
	}
	if err := s.eng.ApplyUpdatesAsync(ups); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(resp)
}

// edgesRequest is a bulk social-edge update batch: friendship upserts
// (insert or reweight) and removals. With Flush true the batch is applied
// synchronously and the request returns only after it — and every update
// queued before it — is applied and published (read-your-writes);
// otherwise the batch is queued on the engine's write queue and the
// response is 202 Accepted.
type edgesRequest struct {
	Edges []edgeItem `json:"edges"`
	Flush bool       `json:"flush,omitempty"`
}

type edgeItem struct {
	U      int32   `json:"u"`
	V      int32   `json:"v"`
	W      float64 `json:"w,omitempty"`
	Remove bool    `json:"remove,omitempty"`
}

type edgesResponse struct {
	Accepted    int    `json:"accepted"`
	Epoch       uint64 `json:"epoch,omitempty"`
	SocialEpoch uint64 `json:"social_epoch,omitempty"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if s.denyIfFollower(w) {
		return
	}
	b := readBody(w, r, maxBulkBody)
	if b == nil {
		return
	}
	defer b.put()
	flush, err := b.decodeEdges()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	ups := b.edges
	if len(ups) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty edges"))
		return
	}
	if len(ups) > maxEdges {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%d edges exceeds limit %d", len(ups), maxEdges))
		return
	}
	// Validate everything before enqueuing anything, so a bad item rejects
	// the whole request instead of applying a prefix.
	n := s.eng.Dataset().NumUsers()
	for i, e := range ups {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			httpError(w, http.StatusBadRequest, fmt.Errorf("edge %d: user out of range (%d,%d)", i, e.U, e.V))
			return
		}
		if e.U == e.V {
			httpError(w, http.StatusBadRequest, fmt.Errorf("edge %d: self-loop on user %d", i, e.U))
			return
		}
		if !e.Remove && (!(e.Weight > 0) || math.IsInf(e.Weight, 0) || math.IsNaN(e.Weight)) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("edge %d: weight %v must be positive and finite", i, e.Weight))
			return
		}
	}
	resp := edgesResponse{Accepted: len(ups)}
	if flush {
		// As for /moves: one social epoch, one landmark-repair pass and one
		// subscription round for the whole request.
		if err := s.eng.ApplyEdgeUpdates(ups); err != nil {
			writeError(w, err)
			return
		}
		us := s.eng.UpdateStats()
		resp.Epoch, resp.SocialEpoch = us.Epoch, us.SocialEpoch
		writeJSON(w, resp)
		return
	}
	if err := s.eng.ApplyEdgeUpdatesAsync(ups); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(resp)
}

type unlocateRequest struct {
	ID int32 `json:"id"`
}

func (s *Server) handleUnlocate(w http.ResponseWriter, r *http.Request) {
	if s.denyIfFollower(w) {
		return
	}
	var req unlocateRequest
	if !decodeBody(w, r, maxPointBody, &req) {
		return
	}
	if req.ID < 0 || int(req.ID) >= s.eng.Dataset().NumUsers() {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown user %d", req.ID))
		return
	}
	if err := s.eng.RemoveUserLocation(req.ID); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statsResponse extends the dataset statistics with the state of the
// epoch/update pipeline and the dynamic social graph.
type statsResponse struct {
	ssrq.DatasetStats
	Epoch          uint64 `json:"epoch"`
	SnapshotAgeMs  int64  `json:"snapshot_age_ms"`
	PendingUpdates int64  `json:"pending_updates"`
	AppliedUpdates int64  `json:"applied_updates"`
	AppliedBatches int64  `json:"applied_batches"`

	SocialEpoch      uint64 `json:"social_epoch"`
	EdgeAdds         int64  `json:"edge_adds"`
	EdgeRemoves      int64  `json:"edge_removes"`
	EdgeReweights    int64  `json:"edge_reweights"`
	PatchedVertices  int    `json:"patched_vertices"`
	Compactions      int64  `json:"compactions"`
	LandmarkRepairs  int64  `json:"landmark_repairs"`
	LandmarkRebuilds int64  `json:"landmark_rebuilds"`

	// Sharding section, one shape at every shard count (num_shards ≥ 1, one
	// shards entry each): how queries spanned the shards, the occupancy
	// imbalance, per-shard state. With one shard the empty-shard counter
	// stays zero and is omitted.
	NumShards     int             `json:"num_shards"`
	ShardsQueried int64           `json:"shards_queried,omitempty"`
	ShardsEmpty   int64           `json:"shards_empty,omitempty"`
	Imbalance     float64         `json:"imbalance,omitempty"`
	Shards        []shardStatJSON `json:"shards"`

	// Durability section (absent on non-durable engines): WAL positions,
	// fsync policy, checkpoint counters, last-recovery cost.
	Durability *ssrq.DurabilityStats `json:"durability,omitempty"`

	// Replication section (read-only followers only; see SetFollower).
	// Pointers so a fully caught-up follower still reports lag 0.
	Role                  string  `json:"role,omitempty"`
	ReplicationAppliedSeq *uint64 `json:"replication_applied_seq,omitempty"`
	ReplicationLeaderSeq  *uint64 `json:"replication_leader_seq,omitempty"`
	ReplicationLagOps     *uint64 `json:"replication_lag_ops,omitempty"`
}

// shardStatJSON is the wire form of one shard's live state.
type shardStatJSON struct {
	Shard          int    `json:"shard"`
	Cells          int    `json:"cells"`
	NumLocated     int    `json:"num_located"`
	Epoch          uint64 `json:"epoch"`
	SocialEpoch    uint64 `json:"social_epoch"`
	AppliedBatches int64  `json:"applied_batches"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	us := s.eng.UpdateStats()
	ss := s.eng.SocialStats()
	resp := statsResponse{
		DatasetStats:   s.eng.DatasetStats(),
		Epoch:          us.Epoch,
		SnapshotAgeMs:  us.SnapshotAge.Milliseconds(),
		PendingUpdates: us.PendingUpdates,
		AppliedUpdates: us.AppliedUpdates,
		AppliedBatches: us.AppliedBatches,

		SocialEpoch:      ss.SocialEpoch,
		EdgeAdds:         ss.EdgeAdds,
		EdgeRemoves:      ss.EdgeRemoves,
		EdgeReweights:    ss.EdgeReweights,
		PatchedVertices:  ss.PatchedVertices,
		Compactions:      ss.Compactions,
		LandmarkRepairs:  ss.LandmarkRepairs,
		LandmarkRebuilds: ss.LandmarkRebuilds,
	}
	fs := s.eng.FanoutStats()
	shards := s.eng.ShardStats()
	resp.NumShards = len(shards)
	resp.ShardsQueried = fs.ShardsQueried
	resp.ShardsEmpty = fs.ShardsEmpty
	resp.Imbalance = s.eng.Imbalance()
	resp.Shards = make([]shardStatJSON, len(shards))
	for i, st := range shards {
		resp.Shards[i] = shardStatJSON{
			Shard:          st.Shard,
			Cells:          st.Cells,
			NumLocated:     st.NumLocated,
			Epoch:          st.Epoch,
			SocialEpoch:    st.SocialEpoch,
			AppliedBatches: st.AppliedBatches,
		}
	}
	resp.Durability = s.eng.DurabilityStats()
	if s.followerStats != nil {
		applied, leader := s.followerStats()
		var lag uint64
		if leader > applied {
			lag = leader - applied
		}
		resp.Role = "follower"
		resp.ReplicationAppliedSeq = &applied
		resp.ReplicationLeaderSeq = &leader
		resp.ReplicationLagOps = &lag
	}
	writeJSON(w, resp)
}

func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		if def >= 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers a refused write: 503 once the engine is closed, 400
// otherwise (the handlers validate first, so that is the engine's own
// validation).
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ssrq.ErrClosed) {
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, err)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
