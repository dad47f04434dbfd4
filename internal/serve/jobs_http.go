package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// JobSpec is one asynchronous tuning request: a workload spec plus a
// scheduling priority (higher runs first; ties run in submission order).
type JobSpec struct {
	WorkloadSpec
	Priority int `json:"priority,omitempty"`
}

// JobsSubmitRequest is the POST /jobs body: either a single inline
// JobSpec or a batch under "jobs".
type JobsSubmitRequest struct {
	JobSpec
	Jobs []JobSpec `json:"jobs,omitempty"`
}

// JobStatus is the wire view of one job. In cluster mode the ID is
// node-qualified ("n2.job-000017") so any member can route a status
// poll or cancel back to the node holding the record.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	State    string `json:"state"`
	Priority int    `json:"priority"`

	// Node names the cluster member holding the job record (empty
	// outside cluster mode).
	Node string `json:"node,omitempty"`

	// RequestID is the ingress request identity that created the job.
	RequestID string `json:"requestId,omitempty"`

	// Deduped marks a submission that attached to an already-active job
	// for the same workload instead of enqueuing duplicate work.
	Deduped bool `json:"deduped,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	Result *TuneResponse `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`

	Events []jobs.Event `json:"events,omitempty"`
}

// JobsListResponse is the GET /jobs (and batch POST /jobs) reply.
type JobsListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

func (s *Server) jobStatus(snap jobs.Snapshot, deduped bool) JobStatus {
	st := JobStatus{
		ID:          s.wireJobID(snap.ID),
		Key:         snap.Key,
		State:       string(snap.State),
		Priority:    snap.Priority,
		RequestID:   snap.RequestID,
		Deduped:     deduped,
		SubmittedAt: snap.Submitted,
		Events:      snap.Events,
	}
	if s.cluster != nil {
		st.Node = s.cluster.Self()
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		st.StartedAt = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		st.FinishedAt = &t
	}
	if snap.Err != nil {
		st.Error = snap.Err.Error()
	}
	if resp, ok := snap.Result.(*TuneResponse); ok {
		st.Result = resp
	}
	return st
}

// SubmitJob validates and enqueues one asynchronous tuning job. Invalid
// specs are rejected at submit time (badRequestError) rather than
// queued to fail later. Submissions for a workload that is already
// queued or running attach to the existing job (deduped=true). The
// context carries the submission's identity — the ingress request id
// pinned on the job record, the trace the job span joins — and does not
// bound the job itself. The job's task resolves through clusterTune: a
// fingerprint owned by a peer is forwarded there, so the fleet still
// runs at most one search per fingerprint even for jobs submitted (or
// batched) on a non-owner.
func (s *Server) SubmitJob(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if _, _, _, err := spec.normalize(); err != nil {
		return JobStatus{}, &badRequestError{err}
	}
	return s.submitResolved(ctx, spec)
}

// submitResolved is SubmitJob for a spec whose defaults are already
// resolved (the keyed ingress normalized it).
func (s *Server) submitResolved(ctx context.Context, spec JobSpec) (JobStatus, error) {
	ws := spec.WorkloadSpec
	key := ws.key()
	snap, deduped, err := s.jobs.Submit(ctx, key, spec.Priority, func(ctx context.Context, emit func(string)) (any, error) {
		emit("tuning " + key)
		resp, err := s.clusterTune(ctx, ws)
		if err != nil {
			return nil, err
		}
		switch {
		case s.cluster != nil && s.cluster.Owner(key) != s.cluster.Self():
			emit("resolved by owner " + s.cluster.Owner(key))
		case resp.FromStore:
			emit("served from plan store")
		case resp.Cached:
			emit("served from plan cache")
		default:
			emit("search complete")
		}
		return resp, nil
	})
	if err != nil {
		return JobStatus{}, err
	}
	return s.jobStatus(snap, deduped), nil
}

// JobStatusByID snapshots one job held by this node; wire ids carrying
// this node's prefix are accepted alongside raw local ids.
func (s *Server) JobStatusByID(id string) (JobStatus, bool) {
	_, local := s.splitJobID(id)
	snap, ok := s.jobs.Get(local)
	if !ok {
		return JobStatus{}, false
	}
	return s.jobStatus(snap, false), true
}

// WaitJob blocks until the job settles (or ctx expires) and returns its
// final status. Used by batch CLI mode; the HTTP API polls instead.
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	_, local := s.splitJobID(id)
	snap, err := s.jobs.Wait(ctx, local)
	if err != nil {
		return JobStatus{}, err
	}
	return s.jobStatus(snap, false), nil
}

// CancelJob cancels a queued or running job held by this node; false
// when the job is unknown or already settled.
func (s *Server) CancelJob(id string) bool {
	_, local := s.splitJobID(id)
	return s.jobs.Cancel(local)
}

func (s *Server) handleJobsSubmit(rw http.ResponseWriter, req *http.Request) {
	// A single-spec submission is relayed to the fingerprint's owner so
	// the job record lives beside its plan-cache entry; a batch is
	// accepted locally and each task forwards its own tune.
	var jr JobsSubmitRequest
	if _, ok := s.keyedIngress(rw, req, &jr, &jr.WorkloadSpec, &jr.Jobs); !ok {
		return
	}
	if len(jr.Jobs) == 0 {
		st, err := s.submitResolved(req.Context(), jr.JobSpec)
		if err != nil {
			writeError(rw, statusForSubmit(err), err)
			return
		}
		writeJSON(rw, http.StatusAccepted, st)
		return
	}
	out := make([]JobStatus, 0, len(jr.Jobs))
	for i, spec := range jr.Jobs {
		st, err := s.SubmitJob(req.Context(), spec)
		if err != nil {
			// Reject the whole batch on the first invalid spec: partial
			// submission would leave the caller guessing which half ran.
			// Only jobs this batch actually created are rolled back — a
			// deduped entry belongs to someone else's live submission.
			// CancelJob, not jobs.Cancel: prev.ID is the wire id, which
			// in cluster mode carries this node's prefix.
			for _, prev := range out {
				if !prev.Deduped {
					s.CancelJob(prev.ID)
				}
			}
			writeError(rw, statusForSubmit(err), fmt.Errorf("job %d: %w", i, err))
			return
		}
		out = append(out, st)
	}
	writeJSON(rw, http.StatusAccepted, JobsListResponse{Jobs: out})
}

func (s *Server) handleJobsList(rw http.ResponseWriter, req *http.Request) {
	// The list is this node's jobs; in cluster mode every id is
	// node-qualified so a client can follow any of them from any node.
	snaps := s.jobs.List()
	out := make([]JobStatus, len(snaps))
	for i, snap := range snaps {
		out[i] = s.jobStatus(snap, false)
	}
	writeJSON(rw, http.StatusOK, JobsListResponse{Jobs: out})
}

func (s *Server) handleJobGet(rw http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if node, _ := s.splitJobID(id); s.proxyJobByID(rw, req, node) {
		return
	}
	st, ok := s.JobStatusByID(id)
	if !ok {
		writeError(rw, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(rw, http.StatusOK, st)
}

func (s *Server) handleJobCancel(rw http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if node, _ := s.splitJobID(id); s.proxyJobByID(rw, req, node) {
		return
	}
	st, ok := s.JobStatusByID(id)
	if !ok {
		writeError(rw, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if !s.CancelJob(id) {
		writeError(rw, http.StatusConflict,
			fmt.Errorf("job %q already settled (%s)", id, st.State))
		return
	}
	st, _ = s.JobStatusByID(id)
	writeJSON(rw, http.StatusOK, st)
}

func statusForSubmit(err error) int {
	if errors.Is(err, jobs.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	// jobs.ErrQueueFull maps to 429 (with Retry-After) via statusFor.
	return statusFor(err)
}
