package topomap

import (
	"context"
	"fmt"
	"time"

	"topomap/internal/service"
)

// ServiceOptions configures NewService.
type ServiceOptions struct {
	// Options apply to every run the service performs. As with MapBatch,
	// services usually leave Workers at 1 and scale across Sessions: job
	// concurrency carries the parallelism without per-tick barriers.
	Options
	// Sessions is the number of warm mapping sessions — the service's
	// run-level concurrency. 0 uses runtime.GOMAXPROCS(0).
	Sessions int
	// QueueDepth bounds the number of submitted-but-not-yet-running jobs;
	// 0 picks 4×Sessions, negative means no waiting room.
	QueueDepth int
	// Block selects the backpressure policy when the queue is full: false
	// rejects the Submit with ErrQueueFull, true blocks it until space
	// frees, the submit context dies, or the service closes.
	Block bool
	// DefaultDeadline bounds each job (queue wait + run) unless the job
	// overrides it; 0 means no default.
	DefaultDeadline time.Duration
	// ProgressEvery is the default tick granularity of per-job progress
	// events; 0 picks the service-layer default (64).
	ProgressEvery int
	// CacheBytes bounds the content-addressed result cache: repeat
	// submissions of an isomorphic (graph, root) pair under the service's
	// run options are served from memory without an engine run, and
	// concurrent identical requests collapse onto one run. 0 disables
	// caching.
	CacheBytes int64
	// CacheShards is the cache's shard count (lock granularity); 0 picks
	// the service-layer default (16).
	CacheShards int
}

// JobOptions are per-job overrides for Service.Submit; the zero value
// inherits everything from the service.
type JobOptions struct {
	// Root overrides the service's configured root processor; nil keeps it.
	Root *int
	// Deadline bounds the job (queue wait + run). 0 inherits the
	// service's DefaultDeadline; negative disables the deadline for this
	// job.
	Deadline time.Duration
	// Progress, if non-nil, receives progress events during the run,
	// every ProgressEvery ticks, on the serving goroutine — it must not
	// block (hand off to a channel and drop when full).
	Progress func(Progress)
	// ProgressEvery is the tick granularity of progress events; 0
	// inherits the service's ProgressEvery, 1 reports every tick.
	ProgressEvery int
	// NoCache bypasses the service's result cache for this job: no lookup,
	// no singleflight attachment, and the run's result is not stored.
	NoCache bool
}

// Progress is a per-job progress event: ticks elapsed, instantaneous
// frontier size, protocol counters, and wall-clock so far. Events are
// delivered on the serving goroutine — a sink must not block.
type Progress = service.Progress

// JobStatus is the lifecycle state of a Job: JobQueued, JobRunning, JobDone,
// or JobCanceled.
type JobStatus = service.JobStatus

// Job lifecycle states.
const (
	JobQueued   = service.StatusQueued
	JobRunning  = service.StatusRunning
	JobDone     = service.StatusDone
	JobCanceled = service.StatusCanceled
)

// CacheState classifies how a submit met the result cache: CacheNone
// (disabled or bypassed), CacheHit (served from memory, no engine run),
// CacheMiss (this submit started the run that populates the cache), or
// CacheShared (collapsed onto an identical run already in flight).
type CacheState = service.CacheState

// Cache states.
const (
	CacheNone   = service.CacheNone
	CacheHit    = service.CacheHit
	CacheMiss   = service.CacheMiss
	CacheShared = service.CacheShared
)

// ServiceStats is a point-in-time snapshot of a service's counters: queue
// depth, in-flight runs, serves (warm and cold), rejections, cancellations,
// allocation rate, and latency means.
type ServiceStats = service.Stats

// Service errors.
var (
	// ErrQueueFull reports a Submit rejected by a full job queue under the
	// reject backpressure policy.
	ErrQueueFull = service.ErrQueueFull
	// ErrServiceClosed reports a Submit after Close or Drain began.
	ErrServiceClosed = service.ErrClosed
)

// Service is the long-lived, concurrent form of Map: a pool of warm mapping
// sessions behind a bounded job queue, accepting asynchronous jobs with
// per-job deadlines, cancellation, and streaming progress. A Service is safe
// for concurrent use and is meant to be created once and shared; MapBatch is
// the one-shot synchronous wrapper over the same machinery, and cmd/topomapd
// serves a Service over HTTP.
type Service struct {
	pool *service.Pool
}

// NewService starts a mapping service with Sessions warm sessions. The
// caller must Close (or Drain) it when done.
func NewService(opts ServiceOptions) *Service {
	cfg := opts.config()
	return &Service{pool: service.New(service.Options{
		Size:            opts.Sessions,
		QueueDepth:      opts.QueueDepth,
		Block:           opts.Block,
		DefaultDeadline: opts.DefaultDeadline,
		ProgressEvery:   opts.ProgressEvery,
		CacheBytes:      opts.CacheBytes,
		CacheShards:     opts.CacheShards,
		Run:             opts.Options.coreOptions(&cfg),
	})}
}

// Submit enqueues a mapping job and returns its async handle. The job is
// served by the next free session in submission order; ctx cancellation
// cancels the job itself, queued or running. A full queue rejects with
// ErrQueueFull or blocks, per the service's backpressure policy.
func (s *Service) Submit(ctx context.Context, g *Graph, opts JobOptions) (*Job, error) {
	j, err := s.pool.Submit(ctx, g, service.JobOptions{
		Root:          opts.Root,
		Deadline:      opts.Deadline,
		Progress:      opts.Progress,
		ProgressEvery: opts.ProgressEvery,
		NoCache:       opts.NoCache,
	})
	if err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	return &Job{inner: j}, nil
}

// Map is the synchronous convenience over Submit+Await: it maps g through
// the service's pool and returns the result, subject to the service's
// backpressure policy and deadlines.
func (s *Service) Map(ctx context.Context, g *Graph) (*Result, error) {
	j, err := s.Submit(ctx, g, JobOptions{})
	if err != nil {
		return nil, err
	}
	return j.Await(ctx)
}

// Stats snapshots the service's counters.
func (s *Service) Stats() ServiceStats { return s.pool.Stats() }

// Lookup is the zero-copy serving fast path: content-address (g, root) and
// return the cached result with its pre-encoded wire bytes, or nil on a
// miss. No job is created and nothing is queued — a hit costs the pooled
// canonical digest plus one sharded-cache read (no allocations), and is
// counted in the service's cache-hit statistics. On nil the caller falls
// back to Submit as usual. cmd/topomapd serves its cache hits through this
// path.
func (s *Service) Lookup(g *Graph, root int) *CachedResult {
	ent := s.pool.Lookup(g, root)
	if ent == nil {
		return nil
	}
	return &CachedResult{ent: ent}
}

// LookupDigest is Lookup surfacing the content address it computes anyway:
// the digest (g, root) is cached under, which is the base a later
// Service.Remap delta chains from. ok reports whether a digest was derived
// at all (false when the cache is off) — on a miss ok is still true and the
// result is nil, so a server can return the digest to clients alongside the
// Submit it falls back to.
func (s *Service) LookupDigest(g *Graph, root int) (res *CachedResult, dig Digest, ok bool) {
	ent, dig, ok := s.pool.LookupDigest(g, root)
	if ent == nil {
		return nil, dig, ok
	}
	return &CachedResult{ent: ent}, dig, ok
}

// CachedResult is a result served from the service's content-addressed
// cache: the decoded result plus both wire encodings of the reconstructed
// topology, pre-computed when the entry was populated. The underlying entry
// is shared by every hit on its key — the byte slices and the result are
// read-only.
type CachedResult struct {
	ent *service.Cached
}

// Result returns the decoded mapping result.
func (c *CachedResult) Result() *Result { return newResult(c.ent.Res) }

// Text returns the reconstructed topology in the plain-text codec, exactly
// as Result().Topology.MarshalString() would — without re-encoding.
func (c *CachedResult) Text() string { return c.ent.Text }

// Binary returns the reconstructed topology in the binary codec (read-only,
// shared across hits). It is nil only for topologies beyond the binary
// codec's 2²⁴-node bound.
func (c *CachedResult) Binary() []byte { return c.ent.Bin }

// Exact reports whether the reconstruction was verified isomorphic to the
// input truth when the entry was populated; content addressing makes the
// verdict identical for every request that can hit the entry.
func (c *CachedResult) Exact() bool { return c.ent.Exact }

// Edges returns the topology's wired-edge count.
func (c *CachedResult) Edges() int { return c.ent.Edges }

// Remapped reports that the entry was produced by a structural remap
// (Service.Remap) rather than an engine run: its topology is bit-equal to a
// full map's, but the Result carries zero protocol counters (Ticks,
// Messages, Transactions).
func (c *CachedResult) Remapped() bool { return c.ent.Remapped }

// Drain shuts the service down gracefully: intake stops immediately, every
// accepted job is served to completion, and the sessions are released. ctx
// bounds the wait — on expiry the remaining jobs are canceled and Drain
// returns ctx's error once the service has fully stopped.
func (s *Service) Drain(ctx context.Context) error { return s.pool.Drain(ctx) }

// Close shuts the service down promptly: intake stops, queued and running
// jobs are canceled (running ones abort between clock ticks), and Close
// returns once every session is released. Idempotent; job handles remain
// readable after Close.
func (s *Service) Close() error { return s.pool.Close() }

// Job is the asynchronous handle of a submitted mapping run.
type Job struct {
	inner *service.Job
}

// Await blocks until the job finishes and returns its outcome. ctx bounds
// the wait only — it does not cancel the job (use Cancel, or cancel the
// submit context). Await may be called repeatedly and concurrently.
func (j *Job) Await(ctx context.Context) (*Result, error) {
	res, err := j.inner.Await(ctx)
	if err != nil {
		if j.inner.Ran() {
			// The run itself failed (or was aborted mid-run): wrap like
			// every other run error of the package.
			return nil, fmt.Errorf("topomap: %w", err)
		}
		// Await timeout, or a job canceled/expired while queued: the
		// context error is returned plain, exactly as MapBatch records it.
		return nil, err
	}
	return newResult(res), nil
}

// Cancel aborts the job: immediately when queued, between clock ticks when
// running. Idempotent; safe after completion.
func (j *Job) Cancel() { j.inner.Cancel() }

// Status reports the job's lifecycle state.
func (j *Job) Status() JobStatus { return j.inner.Status() }

// CacheState reports how the submit met the result cache. Fixed at submit
// time; a CacheHit job is already done when Submit returns.
func (j *Job) CacheState() CacheState { return j.inner.CacheState() }

// Digest returns the content address the job's (graph, root) is cached
// under — the base a later Service.Remap delta chains from — and whether
// one was computed (false when the cache is off or the submit bypassed
// it). Fixed at submit time; hit, shared, and miss jobs all carry it.
func (j *Job) Digest() (Digest, bool) { return j.inner.Digest() }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.inner.Done() }

// Cached returns the cache entry that served this job (pre-encoded wire
// bytes included), or nil: before the job is done, on error outcomes, and
// when the run bypassed the cache. Hit, shared, and miss jobs all carry the
// entry — for a miss it is the entry the job's own run just populated — so
// a server can stream the encoded topology without re-encoding it per
// request.
func (j *Job) Cached() *CachedResult {
	ent := j.inner.Cached()
	if ent == nil {
		return nil
	}
	return &CachedResult{ent: ent}
}
