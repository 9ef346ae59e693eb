(** Sparse paged memory with per-page R/W/X permissions.

    Pages are 4 KiB and allocated lazily at two levels: the page table only
    holds pages that were mapped (or poked), so address-space layouts with
    large gaps (the congruence-constrained Chimera target sections live far
    from the text) cost nothing; and a mapped page is demand-zero, its 4 KiB
    of bytes allocated on the first access that needs them, so a mostly
    untouched region such as the 1 MiB guest stack costs one table entry per
    page. Permissions are enforced on the checked accessors
    ([load_*]/[store_*]/[fetch_u16]); the [peek_*]/[poke_*] accessors bypass
    them and model kernel/loader access.

    Pages can be shared between two memories ({!share_range}): the MMView
    process model maps each core class's rewritten code into a distinct view
    while all views alias the same physical data pages.

    {b Software TLB.} Each memory carries a small direct-mapped translation
    cache per access kind (read/write/execute) mapping page index to page
    payload, so hot checked accesses skip the page hashtable and the
    permission re-check. Any {!map}/{!set_perm}/{!share_range} — through
    {e any} memory, since pages can be aliased — advances a global
    permission epoch; a TLB whose recorded epoch lags is flushed before its
    next lookup. A TLB hit therefore implies a successful permission check
    under the current epoch, preserving the deterministic-fault contract: a
    permission downgrade segfaults on the very next access even through a
    warm TLB (differentially tested in test/test_machine.ml). *)

type perm = { r : bool; w : bool; x : bool }

val perm_none : perm
val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val pp_perm : Format.formatter -> perm -> unit

exception Violation of { addr : int; access : Fault.access }
(** Raised by checked accessors on a permission or unmapped-page violation. *)

type t

val create : unit -> t
val page_size : int
val page_bits : int
(** [page_size = 1 lsl page_bits]. *)

val map : t -> addr:int -> len:int -> perm -> unit
(** Map demand-zero pages covering [addr, addr+len): each page reads as
    zeros, and its bytes are allocated on first touch by any accessor.
    Mapping, permissions and faults are those of a zero-filled page.
    @raise Invalid_argument if a covered page is already mapped. *)

val set_perm : t -> addr:int -> len:int -> perm -> unit
(** Change permissions of already-mapped pages.
    @raise Invalid_argument on an unmapped page. *)

val perm_at : t -> int -> perm option
(** Permissions of the page containing an address, if mapped. *)

val is_mapped : t -> int -> bool

val share_range : from:t -> into:t -> addr:int -> len:int -> unit
(** Alias the pages of [from] covering the range into [into]: both memories
    then see the same bytes (and permissions). Demand-zero source pages are
    filled first, so no page is ever filled through two memories.
    @raise Invalid_argument if a source page is unmapped or a destination
    page already mapped. *)

(** {1 Checked accessors (raise {!Violation})} *)

val load_u8 : t -> int -> int
val load_u16 : t -> int -> int
val load_u32 : t -> int -> int
val load_u64 : t -> int -> int64
val store_u8 : t -> int -> int -> unit
val store_u16 : t -> int -> int -> unit
val store_u32 : t -> int -> int -> unit
val store_u64 : t -> int -> int64 -> unit

val fetch_u16 : t -> int -> int
(** 16-bit instruction fetch: requires execute permission. *)

(** {1 Check-elision-safe page access}

    [read_data]/[write_data] perform one full TLB-checked translation of
    the page containing the address and return its payload bytes. The
    block engine's fused memory units use them to elide redundant checks:
    a second access of the {e same kind} whose address provably lands on
    the {e same page} within one execution unit may reuse the returned
    bytes directly. This is sound because permissions can only change from
    host-side code (handlers, loaders) — never from guest instructions —
    and an execution unit never spans a handler-visible point, so the
    permission check the first access performed still covers the second.
    Offsets into the returned bytes must stay within [page_size]. *)

val read_data : t -> int -> bytes
(** Page payload for a read access to the page containing the address.
    Counts one TLB hit/miss; raises {!Violation} like [load_*]. *)

val write_data : t -> int -> bytes
(** Page payload for a write access; counterpart of {!read_data}. *)

(** {1 Unchecked accessors (loader / kernel)} *)

val peek_u8 : t -> int -> int
val peek_u16 : t -> int -> int
val peek_u32 : t -> int -> int
val peek_u64 : t -> int -> int64
val poke_u8 : t -> int -> int -> unit
val poke_u16 : t -> int -> int -> unit
val poke_u32 : t -> int -> int -> unit
val poke_u64 : t -> int -> int64 -> unit
val poke_bytes : t -> int -> bytes -> unit
(** Copy bytes in, one blit per page, in ascending address order; the
    result equals a [poke_u8] per byte. Like every unchecked accessor it
    maps an unmapped page on demand with {!perm_none}. *)

val peek_bytes : t -> int -> int -> bytes
(** Copy bytes out, one blit per page. *)

val mapped_ranges : t -> (int * int) list
(** Sorted [(addr, len)] list of maximal mapped runs (diagnostics). *)

(** {1 Software-TLB statistics} *)

val tlb_stats : t -> int * int
(** [(hits, misses)] of this memory's TLB since creation or the last
    {!flush_tlb_stats}. *)

val tlb_misses_live : t -> int
(** The miss component of {!tlb_stats} alone, without allocating the pair —
    read on the profiler's per-dispatch path to attribute misses to the
    enclosing translation block. *)

val flush_tlb_stats : t -> unit
(** Add this memory's hit/miss counts to the [chimera_tlb_hits_total] and
    [chimera_tlb_misses_total] metrics and zero them ({!Machine.run} calls
    this once per run for each of its views). *)
