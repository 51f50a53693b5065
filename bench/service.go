package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
)

// service is the report server on a loopback listener, driven through its
// public handler over real TCP by keep-alive clients, one connection each.
// Real runs use two — the reference box has two cores, and the generator
// never uses more connections than that.
type service struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
}

// startService brings the service up and returns once /healthz answers.
func startService(reg *core.Registry, opts report.Options, clients int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	s := &service{
		srv:     serve.New(reg, opts, obs.NewCollector()),
		served:  make(chan error, 1),
		url:     "http://" + ln.Addr().String(),
		clients: make([]*http.Client, clients),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	if _, _, err := s.get(s.clients[0], "/healthz"); err != nil {
		s.stop()
		return nil, fmt.Errorf("bench: service did not come up: %w", err)
	}
	return s, nil
}

// stop shuts the server down and waits for its goroutine.
func (s *service) stop() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
}

// get fetches one path and returns its body and cache lane; anything but
// a 200 is an error.
func (s *service) get(c *http.Client, path string) (body []byte, lane string, err error) {
	resp, err := c.Get(s.url + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, resp.Header.Get("X-Decentsim-Cache"), nil
}

// artifactOf maps a served path to the tree artifact behind it.
func artifactOf(path string) string {
	switch {
	case path == "/report":
		return "index.html"
	case strings.HasPrefix(path, "/experiments/"):
		return "experiments/" + strings.TrimPrefix(path, "/experiments/") + ".html"
	default:
		return strings.TrimPrefix(path, "/report/")
	}
}

// checkServed is the served-output check: the request took the expected
// cache lane and the body equals the offline tree's artifact.
func checkServed(path, lane, wantLane string, body, want []byte) error {
	if lane != wantLane {
		return fmt.Errorf("GET %s: cache lane %q, want %q", path, lane, wantLane)
	}
	if want == nil || !bytes.Equal(body, want) {
		return fmt.Errorf("GET %s: body differs from the offline tree", path)
	}
	return nil
}

// check fetches path and applies checkServed against tree.
func (s *service) check(c *http.Client, path, wantLane string, tree *report.Tree) error {
	body, lane, err := s.get(c, path)
	if err != nil {
		return err
	}
	return checkServed(path, lane, wantLane, body, tree.Lookup(artifactOf(path)))
}

// treeURLs lists every way the service exposes the tree — /report, each
// artifact, each experiment page — in an order drawn from the seed.
func treeURLs(tree *report.Tree, ids []string, seed int64) []string {
	urls := []string{"/report"}
	for _, f := range tree.Files {
		urls = append(urls, "/report/"+f.Path)
	}
	for _, id := range ids {
		urls = append(urls, "/experiments/"+id)
	}
	sim.NewRNG(seed).Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	return urls
}

func treeBytes(tree *report.Tree) int64 {
	var n int64
	for _, f := range tree.Files {
		n += int64(len(f.Data))
	}
	return n
}

// warmResult is one closed-loop pass over a cached tree.
type warmResult struct {
	wall   time.Duration
	lats   []float64 // per-request latency, ns
	bytes  int64
	failed int
}

// warmPass issues n warm GETs from the clients, each sending its next
// request only when the previous one has been read and checked (a closed
// loop). Request k goes to urls[k mod len], so the work is fixed by n.
func (s *service) warmPass(tr *tracer, parent int, urls []string, n int, tree *report.Tree) warmResult {
	want := make([][]byte, len(urls))
	for i, u := range urls {
		want[i] = tree.Lookup(artifactOf(u))
	}
	parts := make([]warmResult, len(s.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			for k := c; k < n; k += len(s.clients) {
				u := k % len(urls)
				sp := tr.begin("GET "+urls[u], "serve", parent, k)
				r0 := time.Now()
				body, lane, err := s.get(s.clients[c], urls[u])
				p.lats = append(p.lats, float64(time.Since(r0)))
				tr.end(sp)
				if err == nil {
					err = checkServed(urls[u], lane, "hit", body, want[u])
				}
				if err != nil {
					p.failed++
				}
				p.bytes += int64(len(body))
			}
		}()
	}
	wg.Wait()
	out := warmResult{wall: time.Since(t0)}
	for _, p := range parts {
		out.lats = append(out.lats, p.lats...)
		out.bytes += p.bytes
		out.failed += p.failed
	}
	return out
}
