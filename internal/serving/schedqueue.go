package serving

import "sync"

// schedQueue replaces the pipeline's FIFO channel with a tenant-aware
// scheduled queue: strict priority tiers (a higher-priority tenant's
// request is always taken first) with smooth weighted round-robin among
// the tenants sharing a tier. The total queued count stays bounded by
// cap, preserving the engine's shed-don't-buffer admission contract.
//
// Channel select semantics are preserved through a token channel: every
// push deposits one token in ready after the request is queued, so the
// replica workers can select on ready/quit (or poll ready) exactly as they
// would on a raw request channel, then call take() to receive the
// scheduler's pick. The invariant is tokens ≤ queued requests — a received
// token always finds a request, whichever worker holds it (only the
// shutdown sweep drains requests without tokens, and it runs strictly
// after every worker has exited).
type schedQueue struct {
	ready chan struct{}

	mu    sync.Mutex
	size  int
	limit int
	tiers []*schedTier
}

// schedTier is one strict-priority level: the tenant FIFOs sharing it and
// their smooth-WRR state.
type schedTier struct {
	priority int
	fifos    []*tenantFIFO
}

// tenantFIFO is one tenant's backlog within a tier, plus its round-robin
// credit. reqs is a head-indexed slice compacted when the head grows
// past half the backing array.
type tenantFIFO struct {
	ts     *tenantState
	reqs   []*request
	head   int
	credit int
}

func (f *tenantFIFO) len() int { return len(f.reqs) - f.head }

func (f *tenantFIFO) push(r *request) { f.reqs = append(f.reqs, r) }

func (f *tenantFIFO) pop() *request {
	r := f.reqs[f.head]
	f.reqs[f.head] = nil
	f.head++
	if f.head > len(f.reqs)/2 && f.head > 32 {
		n := copy(f.reqs, f.reqs[f.head:])
		f.reqs = f.reqs[:n]
		f.head = 0
	}
	return r
}

// newSchedQueue builds the queue with one FIFO per declared tenant,
// grouped into priority tiers ordered highest first. The table's order
// (priority desc, name asc) makes tier construction a single walk.
func newSchedQueue(limit int, tenants *tenantTable) *schedQueue {
	q := &schedQueue{ready: make(chan struct{}, limit), limit: limit}
	for _, ts := range tenants.all {
		if n := len(q.tiers); n == 0 || q.tiers[n-1].priority != ts.cfg.Priority {
			q.tiers = append(q.tiers, &schedTier{priority: ts.cfg.Priority})
		}
		tier := q.tiers[len(q.tiers)-1]
		tier.fifos = append(tier.fifos, &tenantFIFO{ts: ts})
	}
	return q
}

// push queues a request under its tenant; false means the queue is at
// capacity and the request must be shed.
func (q *schedQueue) push(r *request) bool {
	q.mu.Lock()
	if q.size >= q.limit {
		q.mu.Unlock()
		return false
	}
	q.size++
	for _, tier := range q.tiers {
		if tier.priority != r.tenant.cfg.Priority {
			continue
		}
		for _, f := range tier.fifos {
			if f.ts == r.tenant {
				f.push(r)
				q.mu.Unlock()
				q.ready <- struct{}{} // never blocks: tokens ≤ size ≤ limit
				return true
			}
		}
	}
	// Unreachable while every request resolves to a declared tenant
	// state; guard anyway so a future caller bug sheds instead of hangs.
	q.size--
	q.mu.Unlock()
	return false
}

// take returns the scheduler's next pick. It must be called exactly once
// per token received from ready: the highest-priority tier with any
// backlog wins outright, and within that tier tenants are served by
// smooth weighted round-robin — each candidate's credit grows by its
// weight, the highest credit is served and pays back the round's total —
// which interleaves proportionally (A A B for weights 2:1) instead of
// draining one tenant's burst first.
func (q *schedQueue) take() *request {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, tier := range q.tiers {
		var best *tenantFIFO
		total := 0
		for _, f := range tier.fifos {
			if f.len() == 0 {
				continue
			}
			f.credit += f.ts.cfg.Weight
			total += f.ts.cfg.Weight
			if best == nil || f.credit > best.credit {
				best = f
			}
		}
		if best == nil {
			continue
		}
		best.credit -= total
		q.size--
		return best.pop()
	}
	return nil
}

// len reports the queued request count.
func (q *schedQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// drainAll empties every FIFO, returning the stranded requests so the
// shutdown sweep can answer them. Tokens left in ready are abandoned —
// every worker has already exited.
func (q *schedQueue) drainAll() []*request {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*request
	for _, tier := range q.tiers {
		for _, f := range tier.fifos {
			for f.len() > 0 {
				out = append(out, f.pop())
			}
			f.credit = 0
		}
	}
	q.size = 0
	return out
}
