package main

// The daemon under test, wired as cmd/schedd wires it: a resident
// session of nproc workers with a metrics registry and the workload's
// front cache, behind serve.NewServer with the daemon's default
// admission limits and a JSON access log, on a loopback listener.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/metrics"
	"storagesched/internal/serve"
)

// stack is one running daemon.
type stack struct {
	url     string
	session *serve.Session
	store   *timingStore // the disk tier's wrapper; nil without one
	dir     string       // the disk tier's directory; "" without one

	httpSrv *http.Server
	served  chan error
}

// startStack builds the cache, session and server and starts serving
// on a loopback port. Temporary directories go under tmpRoot.
func startStack(w *workload, tmpRoot string) (*stack, error) {
	st := &stack{}
	var fcache *cache.Cache
	var err error
	switch w.cache {
	case cacheMemory:
		fcache, err = cache.New(cache.Config{})
	case cacheMemOnDisk:
		if st.dir, err = os.MkdirTemp(tmpRoot, "cache-"); err != nil {
			return nil, err
		}
		var ds cache.DirStore
		if ds, err = cache.NewDirStore(st.dir); err != nil {
			break
		}
		st.store = newTimingStore(ds)
		fcache, err = cache.New(cache.Config{Store: st.store, MemEntries: warmMemEntries})
	}
	if err != nil {
		st.removeDir()
		return nil, fmt.Errorf("opening the front cache: %w", err)
	}
	st.session = serve.NewSession(serve.SessionConfig{
		Workers:  runtime.NumCPU(),
		Resident: true,
		Cache:    fcache,
		Metrics:  metrics.NewRegistry(),
	})
	logh := slog.NewJSONHandler(io.Discard, nil)
	srv := serve.NewServer(st.session, serve.ServerConfig{
		MaxConcurrent: serve.DefaultMaxConcurrent,
		MaxQueue:      serve.DefaultMaxQueue,
		MaxPerClient:  serve.DefaultMaxPerClient,
		MaxBodyBytes:  serve.DefaultMaxBodyBytes,
		AccessLog:     slog.New(logh),
	})
	st.httpSrv = &http.Server{Handler: srv, ErrorLog: slog.NewLogLogger(logh, slog.LevelError)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.session.Close()
		st.removeDir()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	return st, nil
}

// close drains the server, releases the pool and removes the disk
// tier; it returns once the serving goroutine has exited.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := st.httpSrv.Shutdown(ctx)
	if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.session.Close()
	st.removeDir()
	return err
}

func (st *stack) removeDir() {
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// timingStore wraps a cache.BlobStore, counting Get and Put — the
// calls on a request's path — and recording a span for each when a
// tracer is attached. List, Stat and Delete pass through, so the
// cache's contracts hold exactly as far as the wrapped store's do.
type timingStore struct {
	cache.BlobStore

	gets, puts atomic.Int64
	tr         atomic.Pointer[tracer]
}

func newTimingStore(s cache.BlobStore) *timingStore {
	return &timingStore{BlobStore: s}
}

// Get implements cache.BlobStore.
func (s *timingStore) Get(key cache.Key) ([]byte, bool) {
	tr := s.tr.Load()
	sp := tr.begin("blob.Get", tr.current(), -1)
	val, ok := s.BlobStore.Get(key)
	s.gets.Add(1)
	tr.end(sp)
	return val, ok
}

// Put implements cache.BlobStore.
func (s *timingStore) Put(key cache.Key, val []byte) error {
	tr := s.tr.Load()
	sp := tr.begin("blob.Put", tr.current(), -1)
	err := s.BlobStore.Put(key, val)
	s.puts.Add(1)
	tr.end(sp)
	return err
}
