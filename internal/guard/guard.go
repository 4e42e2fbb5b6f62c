// Package guard is the solver-wide robustness layer: deadline/cancel
// propagation with an amortized check cheap enough for hot inner loops,
// panic-to-error containment so a bug in one subsystem degrades the
// result instead of killing the process, and named fault-injection points
// that tests arm with panics, delays or cancellations.
//
// A Guard wraps a context.Context. Hot loops call Check(), which polls the
// context only once per stride of calls; round boundaries call Tripped(),
// which polls every time. Once the context fires, the guard stays tripped.
// Panics recovered via Recover or Protect are recorded on the guard, and
// Status() folds everything into the status the solver entry points
// report: Complete, DeadlineExceeded, Canceled or Recovered.
//
// A nil *Guard is valid and inert: Check and Tripped report false, Recover
// re-panics (preserving crash semantics for the non-context entry points),
// and Status reports Complete. Fault-injection points (Inject) are
// package-level and cost one atomic load when nothing is armed.
//
// Injection points currently wired through the solver stack:
//
//	core.phase       every knapsack/QK phase of A^BCC
//	knapsack.solve   every knapsack subproblem solve
//	qk.restart       every QK random-bipartition restart (worker goroutine)
//	mc3.solve        every MC3 re-cover call
//	gmc3.residual    every residual A^BCC round inside A^GMC3
//	ecc.solve        the A^ECC entry
//	submod.pass      every lazy-greedy pass of the submodular solver
//	submod.step      every lazy-queue pop of the submodular solver
//	partial.solve    the partial-cover greedy entry
//	overlap.round    every overlap-aware greedy round
//
// and through the durability layer (internal/jobs), so the chaos
// harness can kill the process between any two writes:
//
//	jobs.store.append  every bccjob/1 record write (submit + transitions)
//	jobs.checkpoint    every incumbent checkpoint between solve slices
//	jobs.resume        every requeue of a persisted job at startup
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Status reports how a solver run ended.
type Status int

const (
	// Complete: the solver ran to its normal termination.
	Complete Status = iota
	// DeadlineExceeded: the context deadline expired; the result is the
	// best feasible solution found before the deadline.
	DeadlineExceeded
	// Canceled: the context was canceled; the result is the best feasible
	// solution found before cancellation.
	Canceled
	// Recovered: a panic inside the solver stack was contained; the result
	// is the best feasible solution unaffected by the failure.
	Recovered
)

// String renders the status in the spelling the CLI tools print
// (status=deadline, status=canceled, ...).
func (s Status) String() string {
	switch s {
	case Complete:
		return "complete"
	case DeadlineExceeded:
		return "deadline"
	case Canceled:
		return "canceled"
	case Recovered:
		return "recovered"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// checkStride is how many Check calls share one context poll.
const checkStride = 64

// Guard wraps a context for cheap cooperative cancellation plus panic
// recording. Create one with New; a nil *Guard is inert.
type Guard struct {
	ctx     context.Context
	done    <-chan struct{}
	calls   atomic.Uint64
	tripped atomic.Bool

	mu       sync.Mutex
	panicErr error
}

// New returns a Guard over ctx (nil means context.Background()). An
// already-expired context trips the guard immediately.
func New(ctx context.Context) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{ctx: ctx, done: ctx.Done()}
	g.poll()
	return g
}

// Check reports whether the solver should stop. It is amortized — the
// context is polled once every checkStride calls — so it is safe to call
// on every inner-loop iteration. Once tripped it stays tripped.
func (g *Guard) Check() bool {
	if g == nil {
		return false
	}
	if g.tripped.Load() {
		return true
	}
	if g.done == nil {
		return false
	}
	if g.calls.Add(1)%checkStride != 0 {
		return false
	}
	return g.poll()
}

// Tripped reports whether the guard has fired, polling the context on
// every call. Use it at round boundaries where promptness matters more
// than per-call cost.
func (g *Guard) Tripped() bool {
	if g == nil {
		return false
	}
	if g.tripped.Load() {
		return true
	}
	return g.poll()
}

func (g *Guard) poll() bool {
	if g.done == nil {
		return false
	}
	select {
	case <-g.done:
		g.tripped.Store(true)
		return true
	default:
		return false
	}
}

// Remaining returns the time left until the context deadline, and whether
// a deadline is set at all.
func (g *Guard) Remaining() (time.Duration, bool) {
	if g == nil || g.ctx == nil {
		return 0, false
	}
	dl, ok := g.ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(dl), true
}

// NotePanic records a recovered panic value (first one wins) with the
// stack of the panicking goroutine.
func (g *Guard) NotePanic(p interface{}) {
	if g == nil {
		return
	}
	err, ok := p.(error)
	if !ok {
		err = fmt.Errorf("%v", p)
	}
	g.NoteError(fmt.Errorf("recovered panic: %w\n%s", err, debug.Stack()))
}

// NoteError records a contained failure (first one wins); the guard then
// reports Status Recovered. Used to propagate a Recovered status from an
// inner solver run to its orchestrating outer solver.
func (g *Guard) NoteError(err error) {
	if g == nil || err == nil {
		return
	}
	g.mu.Lock()
	if g.panicErr == nil {
		g.panicErr = err
	}
	g.mu.Unlock()
}

// PanicErr returns the first recorded panic/failure, or nil.
func (g *Guard) PanicErr() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.panicErr
}

// Recover is meant to be deferred directly (defer g.Recover()): it
// converts an in-flight panic into a recorded error on the guard. On a nil
// guard the panic is re-raised, preserving crash semantics for legacy
// non-context entry points.
func (g *Guard) Recover() {
	if p := recover(); p != nil {
		if g == nil {
			panic(p)
		}
		g.NotePanic(p)
	}
}

// Protect runs fn, containing any panic into the guard.
func (g *Guard) Protect(fn func()) {
	defer g.Recover()
	fn()
}

// Err returns the error to attach to a result: the recorded panic if any,
// else the context error once tripped, else nil.
func (g *Guard) Err() error {
	if g == nil {
		return nil
	}
	if pe := g.PanicErr(); pe != nil {
		return pe
	}
	if g.Tripped() {
		return g.ctx.Err()
	}
	return nil
}

// Status folds the guard state into a result status. A recorded panic
// dominates (the run is Recovered even if the deadline also expired).
func (g *Guard) Status() Status {
	if g == nil {
		return Complete
	}
	if g.PanicErr() != nil {
		return Recovered
	}
	if g.Tripped() {
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
			return DeadlineExceeded
		}
		return Canceled
	}
	return Complete
}

// ---------------------------------------------------------------------------
// Fault injection.

var faults struct {
	mu    sync.Mutex
	armed map[string]func()
	count atomic.Int32 // number of armed points; Inject fast-path gate
}

// Arm installs fn at the named injection point; it runs on every Inject of
// that point until Disarm. Test-only machinery: with nothing armed, Inject
// is a single atomic load.
func Arm(point string, fn func()) {
	faults.mu.Lock()
	defer faults.mu.Unlock()
	if faults.armed == nil {
		faults.armed = make(map[string]func())
	}
	if _, ok := faults.armed[point]; !ok {
		faults.count.Add(1)
	}
	faults.armed[point] = fn
}

// Disarm removes the fault at the named point, if any.
func Disarm(point string) {
	faults.mu.Lock()
	defer faults.mu.Unlock()
	if _, ok := faults.armed[point]; ok {
		delete(faults.armed, point)
		faults.count.Add(-1)
	}
}

// DisarmAll removes every armed fault.
func DisarmAll() {
	faults.mu.Lock()
	defer faults.mu.Unlock()
	for point := range faults.armed {
		delete(faults.armed, point)
	}
	faults.count.Store(0)
}

// Inject fires the fault armed at the named point, if any. Solvers call it
// at the points documented in the package comment.
func Inject(point string) {
	if faults.count.Load() == 0 {
		return
	}
	faults.mu.Lock()
	fn := faults.armed[point]
	faults.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// PanicFault returns a fault that panics with msg.
func PanicFault(msg string) func() {
	return func() { panic(msg) }
}

// DelayFault returns a fault that sleeps for d, simulating a stall.
func DelayFault(d time.Duration) func() {
	return func() { time.Sleep(d) }
}

// CancelFault returns a fault that fires the given cancel function,
// simulating a caller abandoning the solve mid-flight.
func CancelFault(cancel context.CancelFunc) func() {
	return func() { cancel() }
}
