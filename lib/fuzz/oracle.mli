(** The seven differential-testing oracles.

    {ol
    {- [engines] — the tree-walking and closure-compiling engines agree
       exactly (time, stats, trace, output, final memory) on the program
       and its annotated variants;}
    {- [semantics] — annotating never changes results: per-node output and
       final shared memory are identical with and without CICO
       annotations, in both Performance and Programmer mode;}
    {- [idempotence] — re-annotating an annotated program with the same
       trace reproduces the same source (fixpoint);}
    {- [protocol] — no run trips the invariant audit of the machine's
       coherence backend — Dir1SW, SiSd or Commute, per
       [Machine.protocol] — ({!Memsys.Protocol.check_invariants},
       enabled through [Machine.debug_protocol]);}
    {- [equations] — Performance CICO's sets are a subset of Programmer
       CICO's for every epoch and node, and the cost-model closed forms
       are non-negative;}
    {- [races] — the streaming race detector over the trace's records
       ({!Races.detect}) returns the same report, as a value, as the
       naive reference ({!Races.naive}); a DRF-by-construction program is
       proven race-free when the caller promises one
       ([~expect_race_free]); and the paper's per-epoch DRFS predicate
       ({!Cachier.Drfs.race}) agrees with the detector both ways: the
       same epoch count, and exactly the detector's racy addresses, each
       first marked in the epoch of its reported race. That confines
       racy data to the conservative annotations — a proven-racy program
       never receives semantics-changing Performance CICO;}
    {- [delta] — a deterministic single-token edit of the program served
       by the incremental engine ({!Delta.Engine.annotate_delta}) yields
       byte-identical annotated source, an equal report and equal epoch
       info to a from-scratch annotation of the edited text; if either
       path rejects the edited program, both must reject with the same
       error class.}} *)

type verdict =
  | Pass
  | Skip of string
      (** the oracle did not apply — e.g. the program fails sema, or the
          baseline run hit a runtime error; not a counterexample *)
  | Fail of string  (** a real counterexample *)

type report = {
  engines : verdict;
  semantics : verdict;
  idempotence : verdict;
  protocol : verdict;
  equations : verdict;
  races : verdict;
  delta : verdict;
}

val names : string list
(** Oracle names, report order: ["engines"; "semantics"; "idempotence";
    "protocol"; "equations"; "races"; "delta"]. *)

val to_list : report -> (string * verdict) list
val first_failure : report -> (string * string) option

val drfs_mismatch : Cachier.Epoch_info.t -> Races.report -> string option
(** The [races] oracle's two-way check of {!Cachier.Drfs} against the
    detector's report on the same trace: [None] when both count the same
    epochs and the addresses {!Cachier.Drfs.race} marks in some epoch are
    exactly the report's racy addresses, each first marked in the epoch
    of its reported race; otherwise the first disagreement. *)

val run_all :
  ?budget_s:float ->
  ?expect_race_free:bool ->
  machine:Wwt.Machine.t ->
  Lang.Ast.program ->
  report
(** Run every oracle on one program. All simulations run with
    [debug_protocol] forced on and are cancelled (and the affected
    oracles skipped) once [budget_s] wall-clock seconds have passed, so a
    shrink candidate with a pathological loop cannot stall the fuzzer.
    [expect_race_free] (default [false]) makes the races oracle fail if
    the detector proves the program racy — pass it for
    DRF-by-construction generator output, never for {!Gen.config.racy}
    programs.

    The machine's [protocol] backend (Dir1SW, SiSd or Commute) governs
    every execution, measurement and invariant audit; the trace feeding
    annotation and race detection is always collected under the reference
    Dir1SW backend, whose write faults surface every cross-node conflict
    in the miss log (SiSd and Commute hide conflicts by design). *)

val pp : Format.formatter -> report -> unit
