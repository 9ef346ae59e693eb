(** Recursive-descent disassembler.

    Starting from the entry point and every function symbol, control flow is
    followed through direct branches, jumps and calls. Like the paper's use
    of IDA Pro (§4.1), the result is *correct but not complete*: code
    reachable only through indirect jumps (jump tables, function pointers)
    with no symbol is not discovered. Chimera recovers such instructions
    lazily at runtime when they fault.

    The result is the set of instructions reachable from the roots; the
    order in which they are discovered does not affect it. An instruction
    starts at an even address inside a code section and lies wholly inside
    that section: bytes that fail either rule are undecodable, like illegal
    encodings. Each code section is indexed densely by halfword, so memory
    is proportional to the code bytes, not to the address span between
    sections. Every call analyzes its binary afresh; nothing is cached
    across calls. *)

type insn = { addr : int; inst : Inst.t; size : int }

(** Static control flow out of an instruction. *)
type flow =
  | Fallthrough
  | Branch of int  (** conditional; also falls through *)
  | Jump of int  (** unconditional direct *)
  | Call of int  (** direct call; resumes at the next instruction *)
  | Indirect_jump  (** [jr]/[jalr x0] — unknown target *)
  | Indirect_call  (** [jalr ra, ...] — unknown target, resumes after *)
  | Ret  (** [jalr x0, 0(ra)] *)
  | Syscall  (** [ecall] — falls through *)
  | Halt  (** [ebreak] *)

val flow_of : insn -> flow

type t

val of_binfile : Binfile.t -> t
(** Disassemble from the entry point and all symbols. *)

val of_binfile_at : Binfile.t -> roots:int list -> t
(** Disassemble from explicit roots only. *)

val find : t -> int -> insn option
(** The instruction starting at an address, if discovered. *)

val ordinal : t -> int -> int
(** The index of the instruction starting at an address in {!to_list}
    order, or [-1] if none was discovered there. *)

val nth : t -> int -> insn
(** [nth t k] is the instruction of ordinal [k], [0 <= k < count t]. *)

val is_covered : t -> int -> bool
(** Whether the address falls inside any discovered instruction. *)

val to_list : t -> insn list
(** All discovered instructions in ascending address order. *)

val iter : t -> (insn -> unit) -> unit
val count : t -> int
val covered_bytes : t -> int

val next_insn : t -> int -> insn option
(** The discovered instruction immediately following the one at [addr]
    (i.e. at [addr + size]), if any. *)

val pp_insn : Format.formatter -> insn -> unit
