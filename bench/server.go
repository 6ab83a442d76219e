package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"ssrq"
	"ssrq/internal/httpapi"
)

// server is one in-process ssrq-server: dataset, engine, handler and a real
// listening socket, built the way cmd/ssrq-server's buildServer builds them.
type server struct {
	spec   spec
	ds     *ssrq.Dataset
	eng    *ssrq.Engine
	api    *httpapi.Server
	hs     *http.Server
	url    string
	walDir string
	served chan error

	setupS float64
}

// engineOptions maps a workload to the options buildServer would pass.
func engineOptions(s spec, walDir string) *ssrq.Options {
	o := &ssrq.Options{Seed: datasetSeed, Shards: s.shards}
	if s.wal {
		o.Durability = &ssrq.DurabilityOptions{Dir: walDir, Fsync: "batch", CheckpointEveryOps: s.ckptEvery}
	}
	return o
}

// startServer synthesizes the dataset, builds (or recovers) the engine and
// serves it on 127.0.0.1:0. rec non-nil wraps the handler in the bench's
// span middleware. setupS runs from the first instruction to the first 200
// from /healthz over the socket.
func startServer(s spec, tmpRoot string, rec *recorder) (_ *server, err error) {
	start := time.Now()
	sv := &server{spec: s, served: make(chan error, 1)}
	if sv.ds, err = ssrq.Synthesize(s.preset, s.n, datasetSeed); err != nil {
		return nil, err
	}
	if s.wal {
		if sv.walDir, err = os.MkdirTemp(tmpRoot, "wal-"); err != nil {
			return nil, err
		}
	}
	if err = sv.openEngine(); err != nil {
		return nil, err
	}
	if err = sv.serve(rec); err != nil {
		sv.eng.Close()
		return nil, err
	}
	sv.setupS = time.Since(start).Seconds()
	return sv, nil
}

// openEngine builds the engine over sv.ds; with a WAL it recovers whatever
// sv.walDir holds, so calling it again after stop is a restart.
func (sv *server) openEngine() (err error) {
	opts := engineOptions(sv.spec, sv.walDir)
	if sv.spec.wal {
		sv.eng, _, err = ssrq.OpenOrRecover(sv.ds, opts)
	} else {
		sv.eng, err = ssrq.NewEngine(sv.ds, opts)
	}
	if err != nil {
		return err
	}
	sv.api = httpapi.New(sv.eng)
	return nil
}

func (sv *server) serve(rec *recorder) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: spanMiddleware(sv.api, rec)}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	c := newConn()
	defer c.CloseIdleConnections()
	resp, err := c.Get(sv.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		sv.stopHTTP()
	}
	return err
}

// spanMiddleware records one handler span per tagged request. Untraced, the
// httpapi server is the handler itself: nothing of the bench sits between
// the socket and the program.
func spanMiddleware(next http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.record(0, req, req, "httpapi"+r.URL.Path, start, time.Now())
	})
}

func (sv *server) stopHTTP() {
	// SSE streams end when the engine closes; Close covers a handler that
	// outlives the grace period.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := sv.hs.Shutdown(ctx); err != nil {
		sv.hs.Close()
	}
	<-sv.served
}

// stop closes the engine (ending SSE streams, sealing the WAL), then the
// HTTP server. The WAL directory is left in place for recovery probes;
// the run's temp root is removed by the caller.
func (sv *server) stop() {
	sv.eng.Close()
	sv.stopHTTP()
}
