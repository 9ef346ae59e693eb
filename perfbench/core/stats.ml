(* Order statistics over benchmark samples. *)

(* Quantile by linear interpolation between the closest ranks (the
   "inclusive" definition: q = 0 is the minimum, q = 1 the maximum). *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0, 1]";
  let s = Array.copy samples in
  Array.sort compare s;
  let h = float_of_int (n - 1) *. q in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median samples = quantile samples 0.5

(* Samples strictly above the q-quantile's rank: the guide's "at least ten
   samples beyond the reported percentile" is [beyond n q >= 10]. *)
let beyond n q = n - 1 - int_of_float (float_of_int (n - 1) *. q)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no values"
  | _ ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. n)
