(** Textual serialization of complete schedules.

    A schedule file is self-contained: it carries the problem instance (in
    the {!Resched_platform.Io} format) followed by the scheduling
    decisions, so downstream tooling (visualizers, runtime loaders,
    regression diffing) needs nothing else. Grammar of the schedule
    section, one directive per line after a [schedule] header:
    {v
    schedule makespan <int> reuse <bool> scale <float>
    region <id> clb <int> bram <int> dsp <int> reconf <int>
    slot <task> impl <idx> (region <id> | proc <id>) start <int> end <int>
    reconf-task region <id> in <task> out <task> start <int> end <int>
    floorplan <region> cols <c0> <c1> rows <r0> <r1>
    v} *)

val to_string : Schedule.t -> string
(** Serialize instance + schedule. Raises [Invalid_argument] when the
    instance's device is not a named preset (a file must be loadable). *)

val of_string : string -> (Schedule.t, string) result
(** Parse and structurally rebuild the schedule. The result is *not*
    re-validated automatically; run {!Validate.check} for that. *)

val save : string -> Schedule.t -> unit
val load : string -> (Schedule.t, string) result
