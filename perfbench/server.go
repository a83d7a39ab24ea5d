package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sagrelay/internal/obs"
	"sagrelay/internal/serve"
)

// service is an in-process solve server on a loopback listener plus the
// keep-alive client the workload drives it with.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

// startService starts a server with opts and a client with at most conns
// connections to it.
func startService(opts serve.Options, conns int) (*service, error) {
	srv, err := serve.NewServer(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, the server and the client, and waits for the
// serve loop to end.
func (s *service) close() {
	_ = s.hs.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = s.srv.Shutdown(ctx)
	cancel()
	s.client.CloseIdleConnections()
}

// post sends one request and reads the whole response.
func (s *service) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// solve posts a /v1/solve?wait=1 and insists on a 200.
func (s *service) solve(req serve.SolveRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	code, resp, err := s.post("/v1/solve?wait=1", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("solve: HTTP %d: %s", code, bytes.TrimSpace(resp))
	}
	return resp, nil
}

// cacheCounters returns the result cache's hit and lookup counts.
func (s *service) cacheCounters() (hits, lookups int64) {
	m := s.srv.MetricsSnapshot()
	return m["cache_hits"], m["cache_hits"] + m["cache_misses"]
}

// tracedFlightRecords is the flight ring a traced run's server keeps. The
// healthy half (8192 records) holds every job of a traced phase several
// times over (a 30 s run's traced phase finishes about 1,500), so
// serve.queue_ms_p50 covers the whole phase. Untraced runs keep the
// default ring, so it does not weigh on their peak_rss_mb.
const tracedFlightRecords = 16384

// flightRecords is the flight ring size for a run's server.
func flightRecords(o options) int {
	if o.trace {
		return tracedFlightRecords
	}
	return 0
}

// queueMS lists the queue wait of the solves of the given record kind that
// the flight recorder holds and that were created at or after since.
func (s *service) queueMS(kind string, since time.Time) []float64 {
	var out []float64
	for _, rec := range s.srv.FlightRecorder().Records() {
		if rec.Kind == kind && rec.Outcome == "done" && !rec.Start.Before(since) {
			out = append(out, rec.QueueMS)
		}
	}
	return out
}

// solveSpan returns the pipeline's "solve" span from a served trace and
// the trace root's job ID.
func solveSpan(trace *obs.SpanDoc) (*obs.SpanDoc, string) {
	if trace == nil {
		return nil, ""
	}
	return trace.Find("solve"), trace.Attrs["job_id"]
}
