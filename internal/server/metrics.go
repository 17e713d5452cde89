package server

import (
	"fmt"
	"strings"
	"sync"

	"biaslab/internal/core"
)

// metrics is the daemon's counter set. Job-state counts, the queue depth
// and the busy workers are derived from the live jobs map at snapshot time
// (the jobs map is the truth); the rest are monotonic counters maintained
// at the events themselves.
type metrics struct {
	mu            sync.Mutex
	jobsSubmitted uint64
	cacheHits     uint64
	cacheMisses   uint64
	// Per-point sweep progress: fresh measurements vs journal replays.
	pointsMeasured uint64
	pointsReplayed uint64
	// Per-measurement totals fed by the Runner's OnMeasure hook.
	measurements uint64
	instructions uint64
	cycles       uint64
	// Audit outcomes at submission: clean vs flagged specs, suppressed
	// findings, strict-mode rejections.
	auditClean      uint64
	auditFlagged    uint64
	auditSuppressed uint64
	auditRejects    uint64
}

func (m *metrics) submitted(cacheHit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsSubmitted++
	if cacheHit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
}

func (m *metrics) point(replayed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if replayed {
		m.pointsReplayed++
	} else {
		m.pointsMeasured++
	}
}

// audited records one spec passing through the auditor at submission.
func (m *metrics) audited(flagged bool, suppressed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if flagged {
		m.auditFlagged++
	} else {
		m.auditClean++
	}
	m.auditSuppressed += uint64(suppressed)
}

// auditRejected records one strict-mode rejection.
func (m *metrics) auditRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.auditRejects++
}

// measured is the Runner's OnMeasure hook target.
func (m *metrics) measured(meas *core.Measurement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.measurements++
	m.instructions += meas.Counters.Instructions
	m.cycles += meas.Counters.Cycles
}

// Snapshot is a consistent copy of the daemon's counters — the single
// source behind GET /metrics and biaslabd -selfcheck, so the endpoint and
// the in-process view cannot disagree.
type Snapshot struct {
	JobsSubmitted uint64
	// Jobs counts the daemon's in-memory jobs by current state.
	Jobs           map[JobState]uint64
	CacheHits      uint64
	CacheMisses    uint64
	QueueDepth     int
	Workers        int
	WorkersBusy    int
	PointsMeasured uint64
	PointsReplayed uint64
	Measurements   uint64
	Instructions   uint64
	Cycles         uint64
	// Audit outcomes at submission.
	AuditClean      uint64
	AuditFlagged    uint64
	AuditSuppressed uint64
	AuditRejected   uint64
	// StoredResults is the result store's current size.
	StoredResults int
}

// Render renders the snapshot in the text exposition format, one
// `biaslabd_*` line per counter, in a fixed order.
func (s Snapshot) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "biaslabd_jobs_submitted_total %d\n", s.JobsSubmitted)
	for _, st := range States() {
		fmt.Fprintf(&sb, "biaslabd_jobs{state=%q} %d\n", string(st), s.Jobs[st])
	}
	fmt.Fprintf(&sb, "biaslabd_cache_hits_total %d\n", s.CacheHits)
	fmt.Fprintf(&sb, "biaslabd_cache_misses_total %d\n", s.CacheMisses)
	fmt.Fprintf(&sb, "biaslabd_queue_depth %d\n", s.QueueDepth)
	fmt.Fprintf(&sb, "biaslabd_workers %d\n", s.Workers)
	fmt.Fprintf(&sb, "biaslabd_workers_busy %d\n", s.WorkersBusy)
	fmt.Fprintf(&sb, "biaslabd_points_measured_total %d\n", s.PointsMeasured)
	fmt.Fprintf(&sb, "biaslabd_points_replayed_total %d\n", s.PointsReplayed)
	fmt.Fprintf(&sb, "biaslabd_measurements_total %d\n", s.Measurements)
	fmt.Fprintf(&sb, "biaslabd_instructions_retired_total %d\n", s.Instructions)
	fmt.Fprintf(&sb, "biaslabd_cycles_total %d\n", s.Cycles)
	fmt.Fprintf(&sb, "biaslabd_audit_specs_clean_total %d\n", s.AuditClean)
	fmt.Fprintf(&sb, "biaslabd_audit_specs_flagged_total %d\n", s.AuditFlagged)
	fmt.Fprintf(&sb, "biaslabd_audit_findings_suppressed_total %d\n", s.AuditSuppressed)
	fmt.Fprintf(&sb, "biaslabd_audit_rejected_total %d\n", s.AuditRejected)
	fmt.Fprintf(&sb, "biaslabd_stored_results %d\n", s.StoredResults)
	return sb.String()
}
