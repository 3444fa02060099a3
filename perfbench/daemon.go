package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specwise"
	"specwise/internal/jobs"
	"specwise/internal/server"
	"specwise/internal/store"
)

// daemon is an in-process specwised: a jobs.Manager behind the real
// HTTP API on a loopback port, with a client of at most two connections.
type daemon struct {
	m      *jobs.Manager
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
	path   string // store file, removed on close ("" when in memory)
}

// startDaemon serves m on a loopback port and waits until /healthz
// answers.
func startDaemon(m *jobs.Manager, path string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{
		m:      m,
		srv:    &http.Server{Handler: server.New(m)},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			Timeout:   60 * time.Second,
		},
		path: path,
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	if code, _, err := d.do(http.MethodGet, "/healthz", nil); err != nil || code != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("daemon not healthy: status %d, %v", code, err)
	}
	return d, nil
}

// close stops the server, cancels what is left and removes the store.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // teardown; Close below ends the rest
	d.srv.Close()
	<-d.served
	d.client.CloseIdleConnections()
	d.m.Close()
	if d.path != "" {
		os.Remove(d.path)
	}
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// timed sends one request and adds its duration (ms) to the series of
// calls; a nil calls times nothing.
func (d *daemon) timed(calls *callLog, series, method, path string, body []byte) (int, []byte, error) {
	t := time.Now()
	code, blob, err := d.do(method, path, body)
	if calls != nil {
		calls.add(series, ms(time.Since(t)))
	}
	return code, blob, err
}

// openDurable starts a daemon over a fresh, fsyncing store file under
// .bench_build/tmp. With stats non-nil the store is wrapped in a probe
// that feeds them.
func openDurable(name string, mc jobs.Config, stats *storeStats) (*daemon, error) {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.wal", name, os.Getpid()))
	os.Remove(path)
	f, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	mc.Store = f
	if stats != nil {
		mc.Store = newStoreProbe(f, stats)
	}
	m, err := jobs.Open(mc)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return startDaemon(m, path)
}

// probedResolver resolves requests as the daemon would and wraps every
// problem in the probe.
func probedResolver(probe *evalProbe) func(*jobs.Request) (*specwise.Problem, error) {
	return func(r *jobs.Request) (*specwise.Problem, error) {
		p, err := jobs.ResolveProblem(r)
		if err != nil {
			return nil, err
		}
		return probe.wrap(p), nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scrapeMetrics fetches /metrics once, as a monitoring system would.
func scrapeMetrics(d *daemon, calls *callLog) {
	t := time.Now()
	code, blob, err := d.do(http.MethodGet, "/metrics", nil)
	if err == nil && code == http.StatusOK {
		calls.add("scrape", ms(time.Since(t)))
		calls.add("scrape_kb", float64(len(blob))/1024)
	}
}

// firstEvent opens the job's SSE stream and returns the time until its
// first complete event.
func firstEvent(d *daemon, id string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event:") {
			seen = true
		}
		if seen && line == "" {
			return time.Since(t), nil
		}
	}
	return 0, errors.New("stream ended before the first event")
}
