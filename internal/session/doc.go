// Package session is the first-class session layer between the engine
// core and every front end: the in-process selfdrive loop, the wire
// server (internal/server), and the CLIs all drive the engine through it.
//
// A Session owns everything one client connection needs: a
// context.Context whose cancellation is the kill switch, a private
// execution context (one worker thread, arena, and join-table per
// session), a plan cache that every SQL statement — ad-hoc text or
// prepared — executes from, and a private observation buffer (Stats)
// that the session records every statement it completed into.
//
// # The plan cache
//
// MB2 assumes queries run from cached plans and that the forecaster sees
// statement templates, constants stripped (Sec 3). The unit of both is
// the template key sql.Normalize scans out of a statement's text: its
// tokens joined by single spaces, identifiers lowercased, every number or
// string replaced by a kind marker (?i integer, ?f decimal, ?s string). A
// sign stays in the key as a token, and so does the count after LIMIT,
// because the planner reads it to shape the tree. "SELECT * FROM t WHERE
// k = 7" and "select * from t where k=-3" are therefore two templates,
// "select * from t where k = ?i" and "... k = - ?i", and each runs one
// parse and one plan however many literals it is sent with.
//
// A cache entry holds the statement parsed from the first text of its
// template, the tree planned from it (a sql.Template, which knows where
// each literal landed), and the ConfigVersion it was planned at.
// Executing a statement is: scan the text into key and literal vector
// (no allocation), look the key up, replan if the engine's
// ConfigVersion has moved — a knob change, repartition or index publish
// anywhere invalidates every entry of every session this way, and nothing
// else does — bind the vector, run. The first Bind of a template copies
// the nodes on the way to a literal and shares the rest of the tree; every
// Bind then rewrites that copy's literal slots in place, so a point
// statement binds without allocating. The bound tree belongs to the
// session and lives until its template's next Bind: the executor runs it
// inside the statement, and what the observation buffer keeps — and,
// through it, a concurrently ticking LiveController sees — is
// Template.Snapshot, a fresh immutable tree with the same literals, taken
// only when the buffer keeps a new representative. A statement sent again
// with the literals its tree was planned from (fixed texts, prepared
// statements) runs the cached tree itself.
//
// A Prepared is a name and a literal vector pointing at such an entry; it
// has no plan or version of its own, and ExecSQL and ExecPrepared run
// the same body (execEntry). What stays out of the
// cache: DDL, which runs against the engine directly; text that does not
// lex; and a statement with more than sql.MaxTemplateLiterals literals.
// A template one of whose literals the planner dropped or read
// structurally (two equalities on one indexed column, LIMIT with a sign)
// is cached but serves only the exact literals it was planned from —
// other vectors are planned on their own. The cache holds MaxTemplates
// entries per session, least recently used evicted, and a session
// MaxPrepared prepared statements (ErrTooManyPrepared beyond).
//
// Ad-hoc statements are observed under their template key, so Stats,
// Registry.DrainObservations, the LiveController's representative plans
// and forecast.History hold one entry per template, not one per distinct
// text; prepared statements are observed under their name.
//
// The Registry is the admission controller and process list: it caps
// concurrent sessions, lists every live session with its state and
// currently-running statement, kills by ID, and drains the per-session
// observation buffers — in ascending session-ID order, the serial-order
// reduction that keeps float sums bit-identical at any parallelism.
// The self-driving loop consumes its live metrics stream from here:
// what it forecasts and acts on is whatever traffic the process list
// saw, whether that traffic arrived over a wire transport or from an
// in-process harness. The Registry also owns the database's maintainer
// (exec.Maintainer): each auto-commit DML statement counts one finished
// write transaction, and every 4 096th runs a serialize → flush → GC pass.
// Commits are acknowledged before that pass makes them durable.
//
// # Result lifetime
//
// A result a Session returns — from ExecSQL, ExecPrepared or ExecPlan — is
// valid until that session's next statement, its Release, or its Close.
// Then the session gives the result's row arrays, its Batch and the arena
// region its statement carved back to exec (exec.Ctx.Statement and
// ReleaseStatement), and the next statement reuses them: what a statement
// allocates does not grow with its result. A caller that keeps rows past
// that point copies them. The wire server releases each result as soon as
// it has answered with it, so an idle connection pins none. Rows taken with
// exec.Execute on ExecCtx between two statements are not the session's:
// they own their memory, and no release reaches them.
//
// # Concurrency contract
//
// A Session executes one statement at a time (ErrBusy otherwise) from a
// single worker goroutine, like a DBMS connection. Kill, List, and
// Drain may race that worker freely: kill flips the session context and
// takes effect at the executor's next operator boundary, and the Stats
// buffer is mutex-guarded with an exactly-once Emit-vs-Drain contract —
// every completed query's observation appears in exactly one drain,
// and a killed query contributes nothing (Session.run records only
// statements that succeeded).
package session
