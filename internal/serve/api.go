package serve

import (
	"encoding/json"
	"net/http"
)

// QueryRequest is the body of POST /v1/mayalias and POST /v1/pointsto.
type QueryRequest struct {
	// P is the queried pointer's variable name (required).
	P string `json:"p"`
	// Q is the second pointer of a may-alias query.
	Q string `json:"q,omitempty"`
	// At names the function whose exit is the query location; empty
	// means the program's entry function.
	At string `json:"at,omitempty"`
	// TimeoutMS overrides the server's per-query deadline, capped by it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful alias query.
type QueryResponse struct {
	MayAlias *bool    `json:"may_alias,omitempty"`
	PointsTo []string `json:"points_to,omitempty"`
	Precise  *bool    `json:"precise,omitempty"` // points-to only: every engine precise
	// Degraded marks an answer served at Andersen precision because a
	// cluster was still solving at the deadline, was demoted by the
	// degradation ladder, or the query could not get a solve slot in
	// time. Degraded answers are still sound for may-alias.
	Degraded bool `json:"degraded"`
	// Warm reports the query bypassed the admission queue: every cluster
	// it touches was already solved (or permanently demoted).
	Warm bool `json:"warm"`
	// Snapshot identifies the program snapshot that produced the whole
	// answer; it changes only on a successful /reload.
	Snapshot  int64 `json:"snapshot"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses (the header carries the
	// same value in seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ReloadRequest is the body of POST /reload. Source, when non-empty, is
// the new program's CPL text. Otherwise the server's regenerator (the
// -synth workload or the original program file) rebuilds the source,
// with Variant salting synthetic workloads so successive reloads really
// change the program.
type ReloadRequest struct {
	Source  string `json:"source,omitempty"`
	Variant int    `json:"variant,omitempty"`
}

// ReloadResponse reports a successful snapshot swap.
type ReloadResponse struct {
	Snapshot  int64  `json:"snapshot"`
	Desc      string `json:"desc"`
	Vars      int    `json:"vars"`
	Clusters  int    `json:"clusters"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// InfoResponse is the body of GET /v1/info.
type InfoResponse struct {
	Snapshot    int64  `json:"snapshot"`
	Desc        string `json:"desc"`
	Vars        int    `json:"vars"`
	Funcs       int    `json:"funcs"`
	Clusters    int    `json:"clusters"`
	Solved      int    `json:"solved"`
	Demoted     int    `json:"demoted"`
	Draining    bool   `json:"draining"`
	ChaosArmed  bool   `json:"chaos_armed"`
	QueueDepth  int    `json:"queue_depth"`
	MaxSolves   int    `json:"max_solves"`
	QueryTimeMS int64  `json:"query_timeout_ms"`
}

// VarsResponse is the body of GET /v1/vars: the query population a load
// driver samples from.
type VarsResponse struct {
	Snapshot int64    `json:"snapshot"`
	Funcs    []string `json:"funcs"`
	Pointers []string `json:"pointers"`
	// Partitions groups covered pointers by Steensgaard partition (size
	// >= 2 only, capped): pairs drawn inside a group can actually alias,
	// pairs across groups never do.
	Partitions [][]string `json:"partitions,omitempty"`
}

// CheckRequest is the body of POST /check (and /v1/check): run one
// named static-analysis pass against the live snapshot. POST /v1/lockset
// reads only TimeoutMS; its pass is lockset.
type CheckRequest struct {
	// Pass names the checker pass: lockset, deadlock, nullcheck or uaf.
	Pass string `json:"pass"`
	// TimeoutMS overrides the server's per-query deadline, capped by it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CheckFinding is one diagnostic of a served check, mirroring the batch
// checker's output: the fingerprint matches aliaslint's for the same
// source, and Snapshot stamps which live snapshot produced it.
type CheckFinding struct {
	Rule        string `json:"rule"`
	Severity    string `json:"severity"`
	Loc         int64  `json:"loc"`
	Func        string `json:"func"`
	Message     string `json:"message"`
	Fingerprint string `json:"fingerprint"`
	Snapshot    int64  `json:"snapshot"`
}

// CheckResponse is the body of POST /check and of POST /v1/lockset. The
// pass runs once per (snapshot, pass) pair; a request whose deadline
// fires first gets ready=false and a retry hint while the run continues
// server-side.
type CheckResponse struct {
	Ready bool   `json:"ready"`
	Pass  string `json:"pass"`
	// Incomplete reports the pass degraded mid-run (deadline expired):
	// findings may be missing, and lockset races may be spurious.
	Incomplete   bool           `json:"incomplete,omitempty"`
	Findings     []CheckFinding `json:"findings,omitempty"`
	Snapshot     int64          `json:"snapshot"`
	RetryAfterMS int64          `json:"retry_after_ms,omitempty"`
}

// EditSpec is one program edit of POST /edit, addressed symbolically:
// statement locations are the stable Loc values the program keeps across
// edits (tombstoning, never renumbering), variables and functions go by
// name.
type EditSpec struct {
	// Action selects the edit: "replace" or "insert" (statement payload
	// from Op/Dst/Src), "delete" (Loc only), or "addvar" (Name, Kind and,
	// for locals, Fn).
	Action string `json:"action"`
	// Loc is the edited statement ("replace"/"delete") or the insertion
	// anchor ("insert": the new statement is spliced after it).
	Loc int64 `json:"loc,omitempty"`
	// Op names the replacement/inserted statement's operator: copy, addr,
	// load, store, nullify, assume_eq or assume_neq.
	Op  string `json:"op,omitempty"`
	Dst string `json:"dst,omitempty"`
	Src string `json:"src,omitempty"`
	// Name/Kind/Fn describe an "addvar" edit (Kind "global" or "local";
	// local variables require Fn).
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
	Fn   string `json:"fn,omitempty"`
}

// EditRequest is the body of POST /edit: a batch of edits applied
// atomically to the live snapshot. Concurrent requests are coalesced —
// one leader applies every queued batch in arrival order and publishes a
// single new snapshot; every caller's response still reports its own
// batch.
type EditRequest struct {
	Edits []EditSpec `json:"edits"`
	// TimeoutMS lowers the server's per-edit deadline (never raises it).
	// On expiry the batch is rejected with 422 and the old snapshot keeps
	// serving.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// EditResponse reports one applied edit batch.
type EditResponse struct {
	// Snapshot is the snapshot id that first includes this batch.
	Snapshot int64 `json:"snapshot"`
	// Applied counts the batch's edits.
	Applied int `json:"applied"`
	// Coalesced reports the batch was processed together with other
	// concurrently submitted batches (they share the published snapshot).
	Coalesced bool `json:"coalesced"`
	// Clusters/Dirty/Reused/Resolved summarize the incremental re-solve:
	// cover size, invalidated clusters, clusters carried over verbatim,
	// and dirty clusters eagerly re-solved.
	Clusters int `json:"clusters"`
	Dirty    int `json:"dirty"`
	Reused   int `json:"reused"`
	Resolved int `json:"resolved"`
	// FellBack reports the batch could not be mapped incrementally (e.g.
	// it added, removed or rewrote a call, or changed the cluster cover)
	// and a full warm reanalysis ran instead; Reason says why.
	FellBack  bool   `json:"fell_back,omitempty"`
	Reason    string `json:"reason,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// StreamEvent is one GET /subscribe server-sent event (the JSON `data:`
// payload; the SSE `event:` field repeats Type).
type StreamEvent struct {
	// Type is "snapshot" (a new snapshot was published), "cluster" (one
	// cluster's incremental status under that snapshot) or "invalidate"
	// (a previously answered query may answer differently now).
	Type     string `json:"type"`
	Snapshot int64  `json:"snapshot"`

	// snapshot events.
	Clusters int  `json:"clusters,omitempty"`
	Dirty    int  `json:"dirty,omitempty"`
	Reused   int  `json:"reused,omitempty"`
	FellBack bool `json:"fell_back,omitempty"`
	Reloaded bool `json:"reloaded,omitempty"` // full /reload, not an edit

	// cluster events: the cluster id and "resolved" or "pending" (lazy
	// clusters re-solve on first query).
	Cluster int    `json:"cluster,omitempty"`
	Status  string `json:"status,omitempty"`

	// invalidate events: the query key whose cached answer is stale.
	Kind string `json:"kind,omitempty"`
	P    string `json:"p,omitempty"`
	Q    string `json:"q,omitempty"`
	At   string `json:"at,omitempty"`
}

// ChaosRequest arms (or, all-zero, disarms) the server's fault
// injection. Only served when the daemon was started with chaos enabled.
type ChaosRequest struct {
	// LatencyEvery/LatencyMS: every nth admitted query sleeps LatencyMS
	// (bounded by the query's own deadline).
	LatencyEvery int `json:"latency_every,omitempty"`
	LatencyMS    int `json:"latency_ms,omitempty"`
	// SolveFaultEvery/SolveFaultKind: every nth cluster-solve attempt
	// receives a fault of the given kind (budget, panic or slow).
	SolveFaultEvery int    `json:"solve_fault_every,omitempty"`
	SolveFaultKind  string `json:"solve_fault_kind,omitempty"`
	SolveSlowMS     int    `json:"solve_slow_ms,omitempty"`
	// FaultAttempts bounds how many ladder attempts per cluster the
	// fault fires on (0 = every attempt, so the cluster demotes).
	FaultAttempts int `json:"fault_attempts,omitempty"`
	// ReloadPauseMS widens the window between analyzing a reloaded
	// program and swapping it in — the torn-snapshot race amplifier.
	ReloadPauseMS int `json:"reload_pause_ms,omitempty"`
}

// ChaosResponse echoes the armed state.
type ChaosResponse struct {
	Armed bool `json:"armed"`
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
