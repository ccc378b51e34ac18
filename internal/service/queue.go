package service

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by Manager.Submit when the job queue is at
// capacity; HTTP maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned when submitting to a manager that is shutting
// down.
var ErrClosed = errors.New("service: manager closed")

// ErrOverloaded is returned by Manager.Submit when admission control
// sheds the job (backlog at or over Options.AdmissionWatermark); HTTP
// maps it to 429 with a Retry-After hint.
var ErrOverloaded = errors.New("service: server overloaded, try again later")

// ErrDraining is returned by Manager.Submit while the manager drains
// for shutdown; HTTP maps it to 503 with a Retry-After hint.
var ErrDraining = errors.New("service: server draining")

// fifo is a bounded FIFO of jobs. Push never blocks (it fails fast when
// full — backpressure belongs at the API edge, not in a goroutine pile);
// Pop blocks until an item arrives or the queue closes. Close unblocks
// every waiter and drains the backlog to the caller so queued jobs can
// be failed deliberately rather than leaked.
type fifo struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []*Job
	reserved int // slots claimed by reserve, not yet filled by commit
	cap      int
	closed   bool
}

func newFIFO(capacity int) *fifo {
	q := &fifo{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends j, reporting ErrQueueFull at capacity and ErrClosed
// after Close.
func (q *fifo) Push(j *Job) error {
	if err := q.reserve(); err != nil {
		return err
	}
	return q.commit(j)
}

// reserve claims a slot for a later commit, reporting ErrQueueFull at
// capacity and ErrClosed after Close. Submit reserves before a job
// becomes visible, so a full queue refuses the job before any duplicate
// submission can coalesce onto it or the journal records it.
func (q *fifo) reserve() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items)+q.reserved >= q.cap {
		return ErrQueueFull
	}
	q.reserved++
	return nil
}

// release gives back a reserved slot that will not be committed.
func (q *fifo) release() {
	q.mu.Lock()
	q.reserved--
	q.mu.Unlock()
}

// commit appends j into a slot reserve claimed. It fails only with
// ErrClosed, when Close ran in between; the slot is given back either
// way.
func (q *fifo) commit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reserved--
	if q.closed {
		return ErrClosed
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return nil
}

// Pop removes the oldest job, blocking while the queue is open and
// empty. ok is false once the queue is closed and drained.
func (q *fifo) Pop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j = q.items[0]
	// Slide instead of re-slicing so the backing array does not pin
	// completed jobs.
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return j, true
}

// forcePush appends j past the capacity bound. Journal replay uses it:
// a restored pending job was already admitted once, and failing it
// because the configured queue is smaller than the crashed backlog
// would make restarts lossy. The overshoot is transient — workers drain
// it before Submit admits anything new past the bound.
func (q *fifo) forcePush(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return nil
}

// TryPop removes the oldest job without blocking; ok is false when the
// queue is empty or closed. The work-stealing path uses it: a steal
// must never block a handler on an empty queue.
func (q *fifo) TryPop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) == 0 {
		return nil, false
	}
	j = q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return j, true
}

// Close marks the queue closed, wakes all poppers and returns the jobs
// still waiting (in FIFO order) so the manager can cancel them.
func (q *fifo) Close() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	rest := q.items
	q.items = nil
	q.cond.Broadcast()
	return rest
}

// Len reports the backlog depth.
func (q *fifo) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
