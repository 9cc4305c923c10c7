package kdtree

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kdtune/internal/faultinject"
	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// Guard bounds one build. Zero values disable the corresponding limit, so
// the zero Guard only protects against worker panics (which are always
// contained).
type Guard struct {
	// Deadline aborts the build if it runs longer than this. The frame-loop
	// harness arms it at a multiple of the incumbent frame time so one
	// pathological tuner probe cannot stall the pipeline.
	Deadline time.Duration

	// MaxDepth aborts when any builder recursion exceeds this depth — a
	// tighter, abort-instead-of-clamp version of Config.MaxDepth for
	// detecting runaway trees (tiny CI drives depth up explosively).
	MaxDepth int

	// MaxArenaBytes aborts when the live item/event stacks across all build
	// arenas exceed this many bytes. It tracks the duplication-driven blowup
	// (the CB term) that dominates build memory; fixed node storage is not
	// counted.
	MaxArenaBytes int64
}

// AbortCause classifies why a guarded build stopped.
type AbortCause uint8

const (
	AbortNone        AbortCause = iota
	AbortDeadline               // Guard.Deadline elapsed
	AbortDepth                  // recursion exceeded Guard.MaxDepth
	AbortMemory                 // live arena bytes exceeded Guard.MaxArenaBytes
	AbortWorkerPanic            // a build worker panicked
)

func (c AbortCause) String() string {
	switch c {
	case AbortNone:
		return "none"
	case AbortDeadline:
		return "deadline"
	case AbortDepth:
		return "depth"
	case AbortMemory:
		return "memory"
	case AbortWorkerPanic:
		return "worker-panic"
	}
	return fmt.Sprintf("AbortCause(%d)", uint8(c))
}

// BuildAborted is the typed error BuildGuarded returns when a build was
// stopped. The Builder remains fully reusable: arenas are drained and reset,
// and the next Build produces a tree bitwise-identical to one from a fresh
// Builder.
type BuildAborted struct {
	Cause     AbortCause
	Algorithm Algorithm
	Guard     Guard
	Panic     *parallel.WorkerPanic // set when Cause == AbortWorkerPanic
}

func (e *BuildAborted) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("kdtree: %v build aborted (%v): %v", e.Algorithm, e.Cause, e.Panic)
	}
	return fmt.Sprintf("kdtree: %v build aborted (%v)", e.Algorithm, e.Cause)
}

// Unwrap exposes the contained worker panic to errors.As chains.
func (e *BuildAborted) Unwrap() error {
	if e.Panic != nil {
		return e.Panic
	}
	return nil
}

// buildGuard is the Builder-owned abort machinery, reset (not reallocated)
// every build. The canceler is shared with every parallel primitive and
// checked at node/chunk granularity; limit breaches and worker panics funnel
// through fail, which records the first cause and trips the canceler so
// in-flight work drains promptly.
type buildGuard struct {
	cc        parallel.Canceler
	limits    Guard
	liveBytes atomic.Int64 // item/event stack bytes across all arenas
	nodeSeq   atomic.Int64 // faultinject ordinal for SiteBuildNode
	leafSeq   atomic.Int64 // faultinject ordinal for SiteBuildLeaf

	mu    sync.Mutex
	gen   uint64 // bumped on arm and disarm; stale deadline timers compare
	cause AbortCause
	wp    *parallel.WorkerPanic
	timer *time.Timer
}

// arm resets the guard for a new build and starts the deadline timer if one
// is configured. The timer closure captures this arming's generation so a
// stale fire from a previous build can never abort the current one.
func (g *buildGuard) arm(limits Guard) {
	g.mu.Lock()
	g.gen++
	gen := g.gen
	g.limits = limits
	g.cause = AbortNone
	g.wp = nil
	g.mu.Unlock()
	g.cc.Reset()
	g.liveBytes.Store(0)
	g.nodeSeq.Store(0)
	g.leafSeq.Store(0)
	if limits.Deadline > 0 {
		g.timer = time.AfterFunc(limits.Deadline, func() { g.failGen(gen, AbortDeadline) })
	}
}

// disarm stops the deadline timer and invalidates its generation.
func (g *buildGuard) disarm() {
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	g.mu.Lock()
	g.gen++
	g.mu.Unlock()
}

// fail records the first abort cause and cancels the build. Later causes
// lose the race and are dropped (the first one is what the caller acted on).
func (g *buildGuard) fail(cause AbortCause, wp *parallel.WorkerPanic) {
	g.mu.Lock()
	if g.cause == AbortNone {
		g.cause = cause
		g.wp = wp
	}
	g.mu.Unlock()
	g.cc.Cancel(&BuildAborted{Cause: cause, Panic: wp})
}

// failGen is fail gated on the arming generation — the deadline timer's
// entry point.
func (g *buildGuard) failGen(gen uint64, cause AbortCause) {
	g.mu.Lock()
	stale := g.gen != gen
	g.mu.Unlock()
	if !stale {
		g.fail(cause, nil)
	}
}

// failure returns the recorded cause (classifying a bare cancellation as a
// deadline-free worker panic never happens; every cancel path sets a cause
// first).
func (g *buildGuard) failure() (AbortCause, *parallel.WorkerPanic) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cause, g.wp
}

// onWorkerPanic is installed as the Builder pool's panic handler: a subtree
// task crashing on its own goroutine becomes an abort cause instead of a
// process death.
func (g *buildGuard) onWorkerPanic(wp *parallel.WorkerPanic) {
	g.fail(AbortWorkerPanic, wp)
}

// addLive adjusts the live arena byte count. Only wired up (non-nil arena
// pointer) when MaxArenaBytes is set, so unguarded builds skip the atomics.
func (g *buildGuard) addLive(delta int64) { g.liveBytes.Add(delta) }

// checkAbort is the per-node cancellation point every builder recursion
// passes through: it probes fault injection, applies the depth and memory
// ceilings, and reports whether the build is canceled (by any cause,
// including the deadline timer and worker panics). Cost when nothing is
// armed: two atomic loads.
func (c *buildCtx) checkAbort(depth int) bool {
	g := c.guard
	if g == nil {
		return false
	}
	if faultinject.Active() {
		faultinject.Check(faultinject.SiteBuildNode, int(g.nodeSeq.Add(1))-1)
	}
	if g.limits.MaxDepth > 0 && depth > g.limits.MaxDepth {
		g.fail(AbortDepth, nil)
	}
	if g.limits.MaxArenaBytes > 0 {
		live := g.liveBytes.Load() + faultinject.ExtraBytes(faultinject.SiteArena)
		if live > g.limits.MaxArenaBytes {
			g.fail(AbortMemory, nil)
		}
	}
	return g.cc.Canceled()
}

// aborted reports whether the build has been canceled without running the
// limit checks — the cheap form for mid-phase bail-outs.
func (c *buildCtx) aborted() bool {
	return c.guard != nil && c.guard.cc.Canceled()
}

// canceler exposes the guard's canceler for the parallel primitives (nil
// when unguarded, which the primitives treat as "never canceled").
func (c *buildCtx) canceler() *parallel.Canceler {
	if c.guard == nil {
		return nil
	}
	return &c.guard.cc
}

// BuildGuarded is Build with fault containment: the guard's deadline, depth
// and memory ceilings abort the build at node/chunk granularity, and any
// worker panic is contained instead of crashing the process. On abort the
// returned error is a *BuildAborted classifying the cause; the Builder's
// pooled arenas stay intact and reusable, and the next Build on it is
// bitwise-identical to one on a fresh Builder.
//
// The returned Tree borrows the Builder's storage exactly like Build's.
func (b *Builder) BuildGuarded(tris []vecmath.Triangle, cfg Config, g Guard) (*Tree, error) {
	cfg = cfg.Clamped().normalized(len(tris))
	c := b.prepare(tris, cfg)
	gd := &b.guard
	gd.arm(g)
	defer gd.disarm()
	c.guard = gd
	if g.MaxArenaBytes > 0 {
		b.main.live = &gd.liveBytes
	}

	var bounds vecmath.AABB
	func() {
		// Contain panics that unwind the root build goroutine itself — from
		// inline pool tasks, single-chunk parallel bodies, or plain build
		// code. Panics on worker goroutines are recovered at their source
		// and arrive via the pool handler or as re-raised *WorkerPanic from
		// a joined primitive, which this recover also catches.
		defer func() {
			if r := recover(); r != nil {
				gd.fail(AbortWorkerPanic, parallel.AsWorkerPanic(-1, r))
			}
		}()
		switch cfg.Algorithm {
		case AlgoInPlace, AlgoLazy:
			bounds = c.buildBreadthFirst()
		default: // node-level, nested, median, sort-once and unknown values
			bounds = c.buildDepthFirst()
		}
	}()

	if gd.cc.Canceled() {
		// A panic may have unwound past a pending subtree join: drain the
		// pool before touching shared state so no worker is still writing
		// into an arena when the caller sees the error. Also reclaim any
		// breadth-first subtree arenas the unwind stranded.
		b.pool.Wait()
		for _, s := range b.bf.subs {
			b.putArena(s)
		}
		b.bf.subs = b.bf.subs[:0]
		b.main.live = nil
		if buildChecks {
			b.assertAbortDrained()
		}
		cause, wp := gd.failure()
		return nil, &BuildAborted{Cause: cause, Algorithm: cfg.Algorithm, Guard: g, Panic: wp}
	}
	b.main.live = nil
	return b.finish(bounds, len(tris)), nil
}
