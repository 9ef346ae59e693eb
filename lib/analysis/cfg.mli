(** Control-flow graph over disassembled instructions.

    Blocks are maximal straight-line instruction runs; successors are block
    start addresses or [Sunknown] when control leaves through an indirect
    jump or return (binary-level CFG recovery cannot resolve those — the
    limitation at the heart of the paper's correctness problem). *)

type succ =
  | Sblock of int
  | Sunknown  (** indirect jump — arbitrary continuation *)
  | Sreturn
      (** function return — the continuation is the caller, which by the
          ABI may observe only [a0]/[a1] and the callee-saved registers *)

type block = {
  b_addr : int;
  b_insns : Disasm.insn list;  (** in address order, non-empty *)
  b_succs : succ list;
  b_call : int option;  (** direct call target if the block ends in a call *)
}

type t

val of_disasm : Disasm.t -> t

val blocks : t -> block list
(** Ascending by address. *)

val count : t -> int
(** Number of blocks. *)

val nth : t -> int -> block
(** [nth t k] is the [k]-th block of {!blocks}, [0 <= k < count t]. *)

val index_containing : t -> int -> int
(** Index of the block containing the instruction at the address, or [-1]
    if no instruction starts there. *)

val block_at : t -> int -> block option
(** Block starting exactly at the address. *)

val block_containing : t -> int -> block option
(** Block whose instruction range contains the address of an instruction. *)

val block_end : block -> int
(** Address one past the last instruction. *)

val preds : t -> int -> int list
(** Addresses of predecessor blocks of the block starting at [addr]. *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering: one node per basic block (instruction listing),
    edges for direct successors, dashed self-loop markers for unknown
    continuations. *)
