// Package jobs is the asynchronous batch-tuning queue behind the
// serving layer: submitted tasks run on a bounded worker pool, ordered
// by priority (ties FIFO), each under its own cancelable context, with
// timestamped progress events recorded across the whole lifecycle.
//
// Submissions carry a dedup key: while a job for a key is still queued
// or running, further submissions for the same key attach to it instead
// of enqueuing duplicate work — the queue-level counterpart of the
// serving layer's in-flight plan-cache coalescing (which still dedups
// against *completed* work underneath).
package jobs

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one timestamped progress note on a job.
type Event struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// Task is the unit of work: it must honor ctx cancellation and may emit
// progress events. The returned value becomes the job's Result.
type Task func(ctx context.Context, emit func(string)) (any, error)

// job is the internal mutable record; all fields below mu-guarded state
// are written only under Manager.mu.
type job struct {
	id        string
	key       string
	priority  int
	seq       uint64
	task      Task
	requestID string
	span      *trace.Span // job lifecycle span (nil when the submit was untraced)
	heapIdx   int         // position in Manager.queue; -1 when not queued

	state         State
	cancelWanted  bool
	submitted     time.Time
	started       time.Time
	finished      time.Time
	result        any
	err           error
	events        []Event
	cancelRunning context.CancelFunc
	done          chan struct{}
}

// Snapshot is a point-in-time, caller-safe view of a job.
type Snapshot struct {
	ID        string
	Key       string
	Priority  int
	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Result    any
	Err       error
	Events    []Event

	// RequestID is the ingress request identity that created the job
	// ("" for untraced submissions); duplicates that attach to it leave
	// their own ids in the event log instead.
	RequestID string
}

func (j *job) snapshotLocked() Snapshot {
	return Snapshot{
		ID: j.id, Key: j.key, Priority: j.priority, State: j.state,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Result: j.result, Err: j.err,
		Events:    append([]Event(nil), j.events...),
		RequestID: j.requestID,
	}
}

// Stats is a point-in-time view of the queue and pool.
type Stats struct {
	Workers    int
	Busy       int
	QueueDepth int
	Submitted  uint64
	Deduped    uint64
	Done       uint64
	Failed     uint64
	Canceled   uint64
}

// Manager owns the queue, the worker pool, and the job table. Workers
// start lazily on first submit, so constructing a Manager is free.
// Settled jobs are retained for status queries up to maxRetainedJobs,
// oldest evicted first.
type Manager struct {
	workers  int
	queueCap int // <= 0: unbounded

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobHeap
	jobs     map[string]*job
	active   map[string]*job // dedup index: queued or running, by key
	settledQ []string        // job ids in settlement order, for O(1) eviction
	nextID   uint64
	closed   bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	started  bool
	wg       sync.WaitGroup

	// The counters change only under mu; busy changes outside it.
	submitted uint64
	deduped   uint64
	finDone   uint64
	finFailed uint64
	finCancel uint64
	busy      atomic.Int64
}

// NewManager builds a manager with the given pool width (min 1) and an
// optional queue bound (queueCap <= 0 means unbounded).
func NewManager(workers, queueCap int) *Manager {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		workers:  workers,
		queueCap: queueCap,
		jobs:     map[string]*job{},
		active:   map[string]*job{},
		baseCtx:  ctx,
		cancel:   cancel,
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// ErrQueueFull rejects submissions beyond the configured queue bound.
var ErrQueueFull = fmt.Errorf("jobs: queue full")

// ErrClosed rejects submissions after Close.
var ErrClosed = fmt.Errorf("jobs: manager closed")

// Submit enqueues a task. If key is non-empty and a job with the same
// key is still queued or running, no new job is created: the existing
// job's snapshot is returned with deduped=true. Higher priorities run
// first; equal priorities run in submission order. The context does not
// bound the job, which runs under the manager's lifecycle; it carries
// the submission's identity. The ingress request id (trace.RequestID)
// is pinned on the job record and re-pinned on the task's context, and
// a deduplicated submission appends its id to the existing job's event
// log so every request that touched the job stays traceable. When ctx
// carries an active trace span the whole job lifecycle (queued ->
// running -> settled) is recorded as one "job" span under it — the
// async continuation of the submitting request's trace.
func (m *Manager) Submit(ctx context.Context, key string, priority int, task Task) (Snapshot, bool, error) {
	requestID := trace.RequestID(ctx)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, false, ErrClosed
	}
	if key != "" {
		// A running job with a cancellation pending is about to settle
		// as canceled: attaching would silently discard the new work,
		// so it gets a fresh job instead (the old job's settle path
		// only clears the dedup index if it still owns it).
		if cur, ok := m.active[key]; ok && !cur.cancelWanted {
			// A more urgent duplicate raises the queued original so the
			// dedup never demotes the work below what any caller asked.
			if priority > cur.priority {
				cur.priority = priority
				if cur.state == StateQueued && cur.heapIdx >= 0 {
					heap.Fix(&m.queue, cur.heapIdx)
				}
			}
			// Event logs are bounded: request ids are client-driven (one
			// per HTTP submission), so a hot key must not grow its job
			// record without limit.
			if requestID != "" && requestID != cur.requestID && len(cur.events) < maxJobEvents {
				cur.events = append(cur.events, Event{
					Time: time.Now(),
					Msg:  "duplicate submission attached (request " + requestID + ")",
				})
			}
			m.deduped++
			return cur.snapshotLocked(), true, nil
		}
	}
	if m.queueCap > 0 && m.queue.Len() >= m.queueCap {
		return Snapshot{}, false, ErrQueueFull
	}
	m.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", m.nextID),
		key:       key,
		priority:  priority,
		seq:       m.nextID,
		task:      task,
		requestID: requestID,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	j.events = append(j.events, Event{Time: j.submitted, Msg: "submitted"})
	// The job span opens while the submitting request's trace portion is
	// still open, so an async job extends that portion rather than
	// splitting it: the portion publishes when the job settles.
	_, j.span = trace.StartSpan(ctx, "job")
	j.span.Annotate("job", j.id)
	if key != "" {
		j.span.Annotate("key", key)
	}
	m.jobs[j.id] = j
	if key != "" {
		m.active[key] = j
	}
	heap.Push(&m.queue, j)
	m.submitted++
	m.evictSettledLocked()
	m.startLocked()
	m.cond.Signal()
	return j.snapshotLocked(), false, nil
}

// maxJobEvents caps one job's event log. Lifecycle transitions and task
// emissions are few; the only externally driven source is duplicate
// submissions carrying a request id, which stop being recorded past the
// cap.
const maxJobEvents = 64

// maxRetainedJobs bounds the job table: job specs are client-controlled,
// so settled records (results included) cannot accumulate forever.
// Oldest settled jobs are forgotten first; a forgotten ID answers 404.
// Live (queued/running) jobs are never evicted.
const maxRetainedJobs = 4096

// settleLocked is a job's one terminal transition: every path that
// ends a job (worker settle, queued cancel, Close) records its state,
// outcome, finish time and closing event here, releases its dedup key,
// counts it, ends its span stamped with the state, and appends it to the
// settlement-order FIFO that feeds O(1) eviction, so Submit never scans
// the table. Call with mu held, exactly once per job.
func (m *Manager) settleLocked(j *job, state State, result any, err error, now time.Time, msg string) {
	j.state, j.result, j.err, j.finished = state, result, err, now
	j.events = append(j.events, Event{Time: now, Msg: msg})
	if j.key != "" && m.active[j.key] == j {
		delete(m.active, j.key)
	}
	switch state {
	case StateDone:
		m.finDone++
	case StateFailed:
		m.finFailed++
	default:
		m.finCancel++
	}
	j.span.Annotate("state", string(state))
	j.span.End()
	m.settledQ = append(m.settledQ, j.id)
	close(j.done)
}

// evictSettledLocked drops the earliest-settled jobs while the table
// exceeds the retention bound (live jobs are never evicted; with every
// retained job live, the queueCap is the backstop). Call with mu held.
func (m *Manager) evictSettledLocked() {
	for len(m.jobs) > maxRetainedJobs && len(m.settledQ) > 0 {
		id := m.settledQ[0]
		m.settledQ = m.settledQ[1:]
		delete(m.jobs, id)
	}
}

// startLocked spins up the worker pool once, on first use.
func (m *Manager) startLocked() {
	if m.started {
		return
	}
	m.started = true
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.worker(m.baseCtx)
	}
}

// worker is one pool goroutine: it drains the priority queue, running
// each task under a per-job context derived from ctx (the manager's
// lifecycle context), so Close cancels running tasks.
func (m *Manager) worker(ctx context.Context) {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*job)
		if j.state != StateQueued { // canceled while queued
			m.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		j.events = append(j.events, Event{Time: j.started, Msg: "started"})
		jctx, cancel := context.WithCancel(ctx)
		j.cancelRunning = cancel
		m.mu.Unlock()

		// Re-attach the submit-time identity (request id and trace): the
		// task's own spans (and any forwarded hops it makes) become
		// children of the job span, and the execution window itself is a
		// "job-run" child so queue wait and run time separate cleanly in
		// the trace.
		jctx = trace.ContextWithSpan(trace.WithRequestID(jctx, j.requestID), j.span)
		rctx, rsp := trace.StartSpan(jctx, "job-run")

		m.busy.Add(1)
		result, err := runTask(rctx, j.task, func(msg string) {
			m.mu.Lock()
			j.events = append(j.events, Event{Time: time.Now(), Msg: msg})
			m.mu.Unlock()
		})
		m.busy.Add(-1)
		rsp.End()
		ctxErr := jctx.Err() // read before the cleanup cancel below
		cancel()

		m.mu.Lock()
		state := StateDone
		switch {
		case j.cancelWanted || (ctxErr != nil && err != nil):
			state, result = StateCanceled, nil
			if err == nil {
				err = context.Canceled
			}
		case err != nil:
			state, result = StateFailed, nil
		}
		m.settleLocked(j, state, result, err, time.Now(), string(state))
		m.mu.Unlock()
	}
}

// runTask isolates task panics into job failures: one bad request must
// not take down a pool worker.
func runTask(ctx context.Context, t Task, emit func(string)) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: task panicked: %v", r)
		}
	}()
	return t(ctx, emit)
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshotLocked(), true
}

// Cancel requests cancellation. Queued jobs finish immediately as
// canceled; running jobs get their context canceled and settle as
// canceled when the task returns. Returns false when the job is unknown
// or already terminal.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.state.Terminal() {
		return false
	}
	now := time.Now()
	j.events = append(j.events, Event{Time: now, Msg: "cancel requested"})
	switch j.state {
	case StateQueued:
		if j.heapIdx >= 0 {
			// Remove outright so queue depth and the queueCap admission
			// check never count tombstones.
			heap.Remove(&m.queue, j.heapIdx)
		}
		m.settleLocked(j, StateCanceled, nil, context.Canceled, now, string(StateCanceled))
	case StateRunning:
		j.cancelWanted = true
		j.cancelRunning()
	}
	return true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	// Snapshot through the held pointer, not the table: the settled job
	// may already have been evicted from m.jobs by newer submissions.
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.snapshotLocked(), nil
}

// List snapshots every known job, oldest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshotLocked())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Stats snapshots queue and pool counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Workers:    m.workers,
		Busy:       int(m.busy.Load()),
		QueueDepth: m.queue.Len(),
		Submitted:  m.submitted,
		Deduped:    m.deduped,
		Done:       m.finDone,
		Failed:     m.finFailed,
		Canceled:   m.finCancel,
	}
}

// Close stops the pool: queued jobs are canceled, running jobs get their
// contexts canceled, and Close blocks until every worker exits.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	now := time.Now()
	for m.queue.Len() > 0 {
		j := heap.Pop(&m.queue).(*job)
		if j.state != StateQueued {
			continue
		}
		m.settleLocked(j, StateCanceled, nil, context.Canceled, now, "canceled (manager closed)")
	}
	m.cancel() // abort running tasks
	m.cond.Broadcast()
	started := m.started
	m.mu.Unlock()
	if started {
		m.wg.Wait()
	}
}

// jobHeap orders by priority (desc), then submission order (asc). Jobs
// track their heap position so Cancel can remove a queued job outright
// and a deduped priority bump can re-sift it.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	x.heapIdx = -1
	*h = old[:n-1]
	return x
}
