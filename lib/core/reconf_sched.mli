(** Step 7 — reconfigurations scheduling (Sec. V-G).

    Decides a total order for the reconfiguration tasks on the single
    reconfiguration controller. Critical reconfigurations (outgoing task
    on the critical path) are placed first, lowest [T_MIN] first, since
    any delay on them propagates fully; each non-critical one is then
    inserted at the earliest controller slot compatible with its window,
    shifting later reconfigurations as required (realized by
    {!Timing.Solver.insert}, which propagates exactly the delays the
    insertion causes: the paper's delay propagation). *)

type arena
(** Reusable buffers for {!run_hot}: a {!Timing.Solver.scratch} solver,
    a closure buffer and the sequencing arrays — one per restart arena
    ({!Pa.Context}), refilled every iteration. *)

val make_arena : unit -> arena

type plan = {
  p_specs : Timing.reconf_spec array;
      (** the reconfigurations ({!Timing.reconf_specs}) *)
  p_seq : int array;
      (** controller sequence (indices into [p_specs], execution order):
          the first [p_len] entries, {e borrowed} from the arena *)
  p_len : int;
  p_times : Timing.resolved;
      (** final resolved times over the complete sequence, {e borrowed}
          from the arena's solver *)
}

val run_hot : ?module_reuse:bool -> arena -> State.t -> plan
(** Sequence every reconfiguration of the state on the controller; the
    solver's times are kept current through every insertion, so callers
    read every start/end time of the complete sequence without
    re-timing. The returned plan aliases the arena — valid only until
    the next [run_hot] on the same arena; copy what must survive. *)
