// Command dchag-vet is the repository's custom static-analysis suite: a
// multichecker (in the spirit of golang.org/x/tools/go/analysis, but
// self-contained on the standard library so it runs offline) for the bug
// classes a generic linter cannot know about — the SPMD and
// resource-discipline contracts of this codebase.
//
// Usage:
//
//	dchag-vet [-run analyzers] [-list] [packages]
//
// Packages default to ./... relative to the working directory, which
// must be inside the module. Exit status is 0 when the suite finds
// nothing, 1 when there are findings (one per line, in
// file:line:col: analyzer: message form), and 2 on operational errors
// (unknown analyzer, list/type-check failure).
//
// # Analyzers
//
// collectivesym — a comm.Communicator collective (Barrier, AllGather*,
// AllReduce*, ReduceScatterSum, Broadcast)
// that is reachable only under a branch whose condition derives from
// rank identity (c.Rank(), mesh coordinates, leader/root flags, or
// locals tainted by them) desynchronizes the group: the other ranks
// rendezvous with nobody, or with the wrong collective. Send/Recv are
// exempt — point-to-point transfers are rank-addressed by design.
//
// commerr — errors returned by internal/comm, internal/dist,
// internal/ckpt and internal/serve carry the root cause of a
// distributed failure (comm.RootCause ranks real failures above
// ErrAborted cascades; ckpt commits only signal success via the error;
// Engine.Close returns the engine's terminal error). Calling such a
// function as a bare statement, in a go/defer statement, or assigning
// its error to _ silently converts a diagnosable failure into a hang or
// a half-written checkpoint.
//
// lockedfield — a struct field annotated `// guarded by <mu>` (doc or
// trailing comment; <mu> must name a sync.Mutex or sync.RWMutex field
// of the same struct) may only be accessed in functions that lexically
// hold that mutex: an earlier <base>.<mu>.Lock() — or RLock() for reads
// — on the access's own base expression. Functions named *Locked are
// assumed caller-locked; composite literals in constructors are exempt.
// Annotations naming a non-mutex sibling are themselves reported.
//
// hotalloc — a function whose doc comment contains `dchag:hotpath`
// promises steady-state allocation-freedom; make/new and tensor
// constructor calls (tensor.New, Ones, Full, FromSlice,
// Tensor.Clone) inside it are reported. This keeps ROADMAP's
// buffer-reuse work list explicit instead of archaeological.
//
// # Suppressions
//
// Deliberate exceptions carry a staticcheck-style marker on the flagged
// line or the line above it:
//
//	//lint:ignore collectivesym pairs with the followers' control Broadcast
//
// The first word names one or more analyzers (comma-separated, or
// "all"); everything after it is the mandatory reason. A marker without
// a reason is reported as a finding of the pseudo-analyzer
// "lintignore" — an undocumented suppression is a finding, not an
// escape hatch.
//
// `make vet-custom` runs the suite over ./... and is part of
// `make verify` and CI; the committed tree must be finding-free.
package main
