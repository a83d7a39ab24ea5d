package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sagrelay/internal/fault"
)

func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()

	var mu sync.Mutex
	var caught []*fault.PanicError
	p.SetPanicHandler(func(pe *fault.PanicError) {
		mu.Lock()
		caught = append(caught, pe)
		mu.Unlock()
	})

	before := fault.RecoveredPanics()
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(4) // the panicking task never reaches wg.Done; count survivors only
	if err := p.Submit(func() { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.Submit(func() { defer wg.Done(); ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// The survivors can finish on the other worker before the panicking
	// one has run the handler; Close waits for every worker to return.
	p.Close()

	if got := ran.Load(); got != 4 {
		t.Fatalf("tasks after panic ran %d times, want 4", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(caught) != 1 {
		t.Fatalf("panic handler called %d times, want 1", len(caught))
	}
	if caught[0].Site != "par.pool.task" || caught[0].Value != "boom" {
		t.Fatalf("caught = %+v", caught[0])
	}
	if len(caught[0].Stack) == 0 {
		t.Fatal("recovered panic has no stack")
	}
	if fault.RecoveredPanics() <= before {
		t.Fatal("RecoveredPanics did not increase")
	}
}

func TestPoolInjectedDispatchFaultStillRunsTask(t *testing.T) {
	// An injected fault at the dispatch site must exercise the recovery
	// path without swallowing the task: accepted tasks run exactly once.
	if err := fault.EnableSpec("par.pool.task=panic:n=1", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	p := NewPool(1, 4)
	defer p.Close()
	var handled atomic.Int64
	p.SetPanicHandler(func(*fault.PanicError) { handled.Add(1) })

	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		if err := p.Submit(func() { defer wg.Done(); ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := ran.Load(); got != 3 {
		t.Fatalf("tasks ran %d times under injected dispatch panic, want 3", got)
	}
	if handled.Load() != 1 {
		t.Fatalf("panic handler called %d times, want 1", handled.Load())
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]atomic.Bool, 8)
		err := ForEach(workers, len(ran), func(i int) error {
			if i == 3 {
				panic("zone blew up")
			}
			ran[i].Store(true)
			return nil
		})
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *fault.PanicError", workers, err)
		}
		if pe.Site != "par.foreach" || pe.Value != "zone blew up" {
			t.Fatalf("workers=%d: pe = %+v", workers, pe)
		}
	}
}

func TestSubmitBlockingWaitsForSpace(t *testing.T) {
	p := NewPool(1, 0)
	release := make(chan struct{})
	if err := p.SubmitBlocking(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var second atomic.Bool
	go func() {
		done <- p.SubmitBlocking(func() { second.Store(true) })
	}()
	select {
	case err := <-done:
		// Acceptable: the worker may have parked the first task and freed
		// the (zero-depth) queue slot already.
		if err != nil {
			t.Fatalf("SubmitBlocking: %v", err)
		}
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err, ok := <-done, true; !ok || err != nil {
		t.Fatalf("SubmitBlocking after release: %v", err)
	}
	p.Close()
	if !second.Load() {
		t.Fatal("blocking-submitted task never ran")
	}
	if err := p.SubmitBlocking(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("SubmitBlocking after Close = %v, want ErrPoolClosed", err)
	}
}
