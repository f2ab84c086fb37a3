// Fixture: transport calls and I/O under held mutexes, plus the shapes
// the analyzer must NOT flag (lock-scoped state access, early release in
// a branch, goroutines with their own lock scope).
package lib

import (
	"context"
	"net"
	"os"
	"sync"
)

type transport interface {
	Call(ctx context.Context, to int, req any) (any, error)
}

// fanOut stands in for pax's stage fan-out: one round trip per site.
func fanOut(ctx context.Context, sites []int, mk func(int) any) error { return nil }

type server struct {
	mu    sync.Mutex
	state map[int]int
}

func (s *server) badCall(ctx context.Context, tr transport) {
	s.mu.Lock()
	_, _ = tr.Call(ctx, 1, nil) // want `transport Call while holding s\.mu`
	s.mu.Unlock()
}

func (s *server) goodCall(ctx context.Context, tr transport) {
	s.mu.Lock()
	v := s.state[1]
	s.mu.Unlock()
	_, _ = tr.Call(ctx, v, nil)
}

func (s *server) badDefer(ctx context.Context, tr transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = tr.Call(ctx, 1, nil) // want `transport Call while holding s\.mu`
}

func (s *server) badIO(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = os.ReadFile(name)     // want `os\.ReadFile while holding s\.mu`
	_, _ = net.Dial("tcp", name) // want `net\.Dial while holding s\.mu`
}

func (s *server) branchRelease(ctx context.Context, tr transport, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		_, _ = tr.Call(ctx, 1, nil)
		return
	}
	s.mu.Unlock()
}

func (s *server) goroutineScope(ctx context.Context, tr transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_, _ = tr.Call(ctx, 1, nil)
	}()
}

func fanOutUnderRead(ctx context.Context, mu *sync.RWMutex) {
	mu.RLock()
	_ = fanOut(ctx, nil, nil) // want `stage fan-out while holding mu`
	mu.RUnlock()
}

func (s *server) fanOutAfterRelease(ctx context.Context) {
	s.mu.Lock()
	sites := []int{s.state[1]}
	s.mu.Unlock()
	_ = fanOut(ctx, sites, nil)
}

type pair interface {
	Call(a, b int)
}

func (s *server) twoArgCallOK(c pair) {
	s.mu.Lock()
	c.Call(1, 2)
	s.mu.Unlock()
}
