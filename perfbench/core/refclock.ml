(* Host-speed reference. On the reference host the speed of a core drifts
   by up to 1.75× within minutes, and a whole run can land in a slow or a
   fast stretch. A fixed kernel, timed between the workload's operations,
   tracks that drift, and timings are reported scaled to the kernel's
   nominal speed. The kernel shares no code with the program measured: it
   allocates short-lived blocks, the work whose speed drifts most there. *)

let nominal_s = 0.00028

let kernel () =
  let l = ref [] in
  for i = 1 to 60_000 do
    l := (i, float_of_int i) :: !l;
    if i land 255 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l)

type t = { mutable samples : float list }

let create () = { samples = [] }

let tick t =
  let t0 = Unix.gettimeofday () in
  kernel ();
  t.samples <- (Unix.gettimeofday () -. t0) :: t.samples

let ticks t n =
  for _ = 1 to n do
    tick t
  done

let median t = Stats.median (Array.of_list t.samples)
let scale t = nominal_s /. median t
