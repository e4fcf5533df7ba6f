package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"aarc"
)

// serviceOptions are aarcd's defaults (cmd/aarcd flags left unset): the
// AARC method, seed 42, 96 host cores, noise on, a 128-entry memory store
// and GOMAXPROCS shards. Workloads append their own server-side settings.
func serviceOptions() []aarc.Option {
	return []aarc.Option{
		aarc.WithMethod(serviceMethod),
		aarc.WithSeed(serviceSeed),
		aarc.WithHostCores(serviceHostCores),
		aarc.WithNoise(true),
		aarc.WithCacheSize(serviceCacheSize),
		aarc.WithShards(0),
	}
}

// env is one served instance: the facade's Service behind the handler
// cmd/aarcd mounts, on a loopback listener, plus the client that drives
// it with at most conns connections.
type env struct {
	svc    *aarc.Service
	srv    *http.Server
	base   string
	client *http.Client
	served chan error // Serve's return value
}

// startEnv builds the service from opts and serves it on 127.0.0.1.
func startEnv(opts []aarc.Option, conns int) (*env, error) {
	svc, err := aarc.NewService(opts...)
	if err != nil {
		return nil, fmt.Errorf("new service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	// The http.Server timeouts are aarcd's flag defaults.
	e := &env{
		svc: svc,
		srv: &http.Server{
			Handler:           aarc.NewServiceHandler(svc),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the server, waits for its Serve goroutine, and closes the
// service and the client's idle connections.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, e.svc.Close())
}

// kind classifies a request for per-kind latency reporting.
type kind uint8

const (
	postHit  kind = iota // POST /v1/configure answered from the store
	postMiss             // POST /v1/configure that runs a search
	getFP                // GET /v1/recommendation/{fp}
)

func (k kind) String() string {
	switch k {
	case postHit:
		return "post_hit"
	case postMiss:
		return "post_miss"
	default:
		return "get"
	}
}

// request is one generated API call. body is owned by the connection
// that built it and is valid until that connection's next request.
type request struct {
	kind   kind
	item   int    // index into the workload's specs
	body   []byte // POST /v1/configure body; nil for a GET
	spec   []byte // the inline spec inside body
	fp     string // GET target
	seed   uint64 // request seed, when seeded
	seeded bool
}

// response is one API answer; body aliases the connection's read buffer.
type response struct {
	status int
	cache  string // X-Aarc-Cache
	body   []byte
}

// do sends req and reads the whole response into buf.
func (e *env) do(req *request, buf *bytes.Buffer) (response, error) {
	var hr *http.Request
	var err error
	if req.body != nil {
		hr, err = http.NewRequest(http.MethodPost, e.base+"/v1/configure", bytes.NewReader(req.body))
	} else {
		hr, err = http.NewRequest(http.MethodGet, e.base+"/v1/recommendation/"+req.fp, nil)
	}
	if err != nil {
		return response{}, err
	}
	resp, err := e.client.Do(hr)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, fmt.Errorf("reading response: %w", err)
	}
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Aarc-Cache"), body: buf.Bytes()}, nil
}

// counts is what one slice of a phase saw: requests completed, those
// that succeeded, and the successes' round trips.
type counts struct {
	all, ok int
	lat     hist
}

// tally collects a phase's counts per slice and the first failures.
type tally struct {
	mu     sync.Mutex
	slices []counts
	errs   []error // capped at maxErrs
	failed int
}

const maxErrs = 8

func newTally(slices int) *tally { return &tally{slices: make([]counts, slices)} }

// add merges one connection's counts and failures.
func (t *tally) add(cs []counts, errs []error, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range cs {
		t.slices[k].all += cs[k].all
		t.slices[k].ok += cs[k].ok
		t.slices[k].lat.merge(&cs[k].lat)
	}
	t.failed += failed
	for _, err := range errs {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, err)
		}
	}
}

// total sums the slices.
func (t *tally) total() counts {
	var c counts
	for k := range t.slices {
		c.all += t.slices[k].all
		c.ok += t.slices[k].ok
		c.lat.merge(&t.slices[k].lat)
	}
	return c
}

// closedLoop drives conns connections, each sending its next request
// only after the previous one has completed, until ctx is done. The
// request in flight when ctx ends is completed and counted. A request is
// counted in the slice of width after start that it completed in; the
// last slice also takes the requests completed after it.
func closedLoop(ctx context.Context, e *env, w workload, conns int, start time.Time, width time.Duration, slices int) *tally {
	t := newTally(slices)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				buf    bytes.Buffer
				cs     = make([]counts, slices)
				errs   []error
				failed int
			)
			for i := 0; ctx.Err() == nil; i++ {
				req := w.next(c, i)
				sent := time.Now()
				resp, err := e.do(&req, &buf)
				done := time.Now()
				if err == nil {
					err = w.check(c, &req, &resp)
				}
				k := min(int(done.Sub(start)/width), slices-1)
				cs[k].all++
				if err != nil {
					failed++
					if len(errs) < maxErrs {
						errs = append(errs, fmt.Errorf("conn %d request %d (%s): %w", c, i, req.kind, err))
					}
					continue
				}
				cs[k].ok++
				cs[k].lat.add(done.Sub(sent))
			}
			t.add(cs, errs, failed)
		}(c)
	}
	wg.Wait()
	return t
}
