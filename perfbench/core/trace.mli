(** Spans the benchmark records around its own calls into each layer.

    A span has a name ["layer.what"], a start and an end, the span that
    was open when it began (its parent) and the guest or request it worked
    for. Spans stay in memory and are written out when the benchmark
    ends. A layer's self time is its span's duration minus the part of
    that interval its child spans cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at the root *)
  op : int;  (** guest or request id, [-1] when none *)
  start : float;
  stop : float;
}

type t

val create : on:bool -> t
(** A recorder; with [~on:false], {!span} only calls its function. *)

val on : t -> bool

val span : t -> ?op:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name], nested under
    whichever span is open. The span closes also when [f] raises. *)

val add :
  t -> name:string -> parent:int -> op:int -> start:float -> stop:float -> int
(** Record a span timed elsewhere (a request's queue wait and service,
    measured on the worker); returns its id. *)

val current : t -> int
(** The innermost open span, [-1] if none. *)

val spans : t -> span list
(** Every recorded span, in completion order. *)

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the union of the intervals, each clipped to [\[lo, hi\]]. *)

val self_times : span list -> (span * float) list
(** Each span with its duration minus the union of its children. *)

val layer : string -> string
(** The layer of a span name: its text up to the first ['.']. *)

val self_by_name : span list -> (string * float) list
(** Total self time per span name, sorted by name. *)

val unattributed : wall:float -> attributed:float -> float
(** [1 - attributed / wall]: the share of the measured wall time no layer
    span accounts for.
    @raise Invalid_argument when [wall <= 0]. *)

val to_jsonl : out_channel -> span list -> unit
(** One JSON object per span and line. *)
