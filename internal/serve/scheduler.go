package serve

import (
	"context"
	"errors"
	"fmt"

	"coaxial"
)

// ErrQueueFull is returned by Submit when the bounded queue is saturated;
// the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by Submit once shutdown began; the HTTP layer
// maps it to 503.
var ErrDraining = errors.New("serve: server draining")

// Submit validates, registers, and enqueues one job, returning its ID.
// The queue-depth check and the enqueue happen under the server lock, so
// the bounded channel can never overfill: submitters serialize, workers
// only drain.
func (s *Server) Submit(req JobRequest) (string, error) {
	points, err := req.Points()
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", ErrDraining
	}
	if len(s.queue) >= cap(s.queue) {
		return "", ErrQueueFull
	}
	j := s.store.create(s.baseCtx, req, points)
	//lint:ignore lockcheck the queue-depth check above runs under the same lock as every send, so the bounded channel has room and this send never blocks
	s.queue <- j
	return j.id, nil
}

// worker is one pool goroutine: it drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job's points in order through the single-flight
// group, recording each point as it lands so streams and GETs observe
// partial completion. A canceled point salvages the Runner's partial
// window into the job's results before the job goes terminal.
func (s *Server) runJob(j *job) {
	if !s.store.markRunning(j) {
		return // canceled while queued
	}
	for i := range j.points {
		if j.ctx.Err() != nil {
			s.store.finish(j, StateCanceled, context.Cause(j.ctx).Error())
			return
		}
		p := j.points[i]
		out, err := s.flights.do(j.ctx, p.flightKey(), s.progressSink(j, i, p.Label), s.runPointFunc(p))
		pr := PointResult{Index: i, Label: p.Label, Result: out.Result, Rack: out.Rack}
		if err == nil {
			s.store.notePoint(j, pr)
			continue
		}
		pr.Error = err.Error()
		if errors.Is(err, context.Canceled) || j.ctx.Err() != nil {
			// Salvaged partial measurements: real simulated data over a
			// shorter window than requested (empty when another waiter
			// keeps the flight alive).
			pr.Partial = out.Result.Cycles > 0 || out.Rack != nil
			s.store.notePoint(j, pr)
			s.store.finish(j, StateCanceled, fmt.Sprintf("point %d (%s): %v", i, p.Label, err))
			return
		}
		s.store.notePoint(j, pr)
		s.store.finish(j, StateFailed, fmt.Sprintf("point %d (%s): %v", i, p.Label, err))
		return
	}
	s.store.finish(j, StateDone, "")
}

// progressSink builds the per-point progress observer feeding the store.
func (s *Server) progressSink(j *job, point int, label string) func(p coaxial.Progress) {
	return func(p coaxial.Progress) {
		s.store.noteProgress(j, ProgressEvent{
			Point:   point,
			Label:   label,
			Phase:   p.Phase,
			Cycles:  p.Cycles,
			Retired: p.Retired,
			Target:  p.Target,
		})
	}
}

// runPointFunc builds the flight body for one point.
func (s *Server) runPointFunc(p Point) runFunc {
	return func(ctx context.Context, onProgress func(coaxial.Progress)) (PointOutcome, error) {
		return s.engine.RunPoint(ctx, p, onProgress)
	}
}

// Cancel cancels a job by ID and blocks until it reaches a terminal state
// (so the response carries the salvaged partials), or until ctx gives up
// waiting. Reports whether the job exists.
func (s *Server) Cancel(ctx context.Context, id string) (JobStatus, bool, error) {
	j, ok := s.store.get(id)
	if !ok {
		return JobStatus{}, false, nil
	}
	if !s.store.cancelQueued(j) {
		j.cancel()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return s.store.snapshot(j), true, ctx.Err()
	}
	return s.store.snapshot(j), true, nil
}

// Shutdown drains gracefully: new submissions are rejected (ErrDraining),
// queued and running jobs finish, workers exit. Returns ctx's error if it
// expires first (jobs keep draining in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go s.waitWorkers(done)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts down hard: every job's context is canceled (running
// simulations salvage partials and go terminal), then workers drain.
func (s *Server) Close() error {
	s.baseCancel()
	return s.Shutdown(context.Background())
}

// waitWorkers signals done once the pool exits.
func (s *Server) waitWorkers(done chan struct{}) {
	s.wg.Wait()
	close(done)
}
