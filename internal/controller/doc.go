// Package controller implements the Ambit controller of Section 5: the AAP
// (ACTIVATE-ACTIVATE-PRECHARGE) and AP (ACTIVATE-PRECHARGE) primitives, the
// command sequences for all seven bulk bitwise operations (Figure 8), the
// split-row-decoder latency optimization (Section 5.3), per-operation
// latency/command accounting, and the execute-verify-retry reliability
// policy (TMR over weak analog primitives).
//
// Every command sequence is a Train: a validated program of AAP/AP steps
// over symbolic operand slots plus fixed B/C-group addresses.  Each
// Figure-8 sequence is built into one at package init, and internal/compile
// emits them for arbitrary boolean functions; ExecuteOp runs an op's train
// through ExecuteTrain.  A run takes the train's net effect, evaluated word
// by word, unless a fault injector, raised wordline state, a two-wordline
// sensing step or an operand layout the net program cannot order demands
// step-by-step device commands.  The two routes are contract-equal:
// identical cells, latencies, controller and device statistics, and (when
// traced) byte-identical command event streams, enforced by the
// *MatchesStepwise tests.
//
// A Controller is not safe for concurrent use on one bank: callers (the
// root System and its batch engine) serialize access per bank via the
// shared exec shard locks.  All results are deterministic — latency is pure
// arithmetic over the timing parameters, and fault injection is seeded.
package controller
