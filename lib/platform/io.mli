(** Textual problem-instance format (round-trippable).

    Grammar (one directive per line, '#' starts a comment):
    {v
    arch processors <int> recfreq <float> device <preset-name>
    tasks <int>
    task <id> [name <string>]
    impl sw time <int>
    impl hw time <int> clb <int> bram <int> dsp <int> [module <int>]
    edge <src> <dst>
    v}
    [impl] lines attach to the most recent [task] line. The device must be
    one of the {!Resched_fabric.Device.presets}. *)

val to_string : Instance.t -> string
(** Serialize; device is emitted by preset name (raises [Invalid_argument]
    for non-preset devices). *)

val of_string : string -> (Instance.t, string) result
(** Parse; the error message carries the offending line number. A
    dependency graph with a cycle is rejected with
    ["dependency cycle through tasks a -> b -> ... -> a"]. *)

val save : string -> Instance.t -> unit
(** Write to a file path. *)

val load : string -> (Instance.t, string) result
(** Read and parse a file. Total: a path that cannot be read (missing, a
    directory, no permission) is an [Error] carrying the system's
    message, like a parse failure. *)
