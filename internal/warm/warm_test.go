package warm

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 42 [running]:").
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	return id
}

// settle waits until no worker is parked: each test starts from an empty
// stack, whatever ran before it.
func settle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * idleWindow); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(parked)
		mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still parked after %v", n, 5*idleWindow)
		}
	}
}

// waitParked waits until n workers are parked.
func waitParked(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		got := len(parked)
		mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked, want %d", got, n)
		}
	}
}

// TestSequentialUnitsReuseOneGoroutine: a unit handed over after the last
// one finished runs on the goroutine that ran it, not a fresh one.
func TestSequentialUnitsReuseOneGoroutine(t *testing.T) {
	settle(t)
	ids := make(map[int]int)
	for i := 0; i < 50; i++ {
		ran := make(chan int)
		Go(func() { ran <- goid() })
		ids[<-ran]++
		// The worker parks once its unit has returned: wait for that, so
		// the next unit finds it on the stack.
		waitParked(t, 1)
	}
	if len(ids) != 1 {
		t.Fatalf("50 sequential units ran on %d goroutines, want 1: %v", len(ids), ids)
	}
}

// TestReuseIsLastParkedFirst: of several parked workers, the one parked
// most recently takes the next unit.
func TestReuseIsLastParkedFirst(t *testing.T) {
	settle(t)
	ids := make([]int, 3)
	release := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	var running sync.WaitGroup
	running.Add(3)
	for i := range ids {
		Go(func() {
			ids[i] = goid()
			running.Done()
			<-release[i]
		})
	}
	running.Wait()
	// Park them in the order 2, 0, 1: 1 is on top.
	for n, i := range []int{2, 0, 1} {
		close(release[i])
		waitParked(t, n+1)
	}
	ran := make(chan int)
	Go(func() { ran <- goid() })
	if got := <-ran; got != ids[1] {
		t.Fatalf("the next unit ran on goroutine %d; parked last was %d (ids %v)", got, ids[1], ids)
	}
}

// TestHandOffAtTheWindowsEdge: a unit handed to a worker just as its idle
// window ends still runs, on it or on another: none is lost.
func TestHandOffAtTheWindowsEdge(t *testing.T) {
	settle(t)
	ran := make(chan struct{})
	Go(func() { ran <- struct{}{} })
	<-ran
	time.Sleep(idleWindow - 2*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		Go(wg.Done)
		time.Sleep(200 * time.Microsecond)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("a unit handed over at the end of the idle window never ran")
	}
}

// TestBlockedUnitsHoldUpNothing: a unit that blocks does not hold up the
// next one, however many block: there is no bound to wait on.
func TestBlockedUnitsHoldUpNothing(t *testing.T) {
	const units = 200
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(units)
	var done sync.WaitGroup
	done.Add(units)
	for i := 0; i < units; i++ {
		Go(func() {
			defer done.Done()
			started.Done()
			<-release
		})
	}
	all := make(chan struct{})
	go func() { started.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("not all of %d blocking units started", units)
	}
	close(release)
	done.Wait()
}

// TestIdleWorkersExit: once the idle window has passed with no work, the
// workers are gone and the goroutine count is back where it started.
func TestIdleWorkersExit(t *testing.T) {
	settle(t)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			<-release
		})
	}
	close(release)
	wg.Wait()
	if runtime.NumGoroutine() < before+16 {
		t.Fatalf("%d goroutines with 16 workers running, %d before", runtime.NumGoroutine(), before)
	}
	for deadline := time.Now().Add(idleWindow + 5*time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after the last unit, %d before", runtime.NumGoroutine(), idleWindow+5*time.Second, before)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(parked) != 0 {
		t.Fatalf("%d workers parked after the idle window", len(parked))
	}
}
