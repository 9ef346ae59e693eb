type t = int

let of_int n =
  if n < 0 || n > 31 then invalid_arg (Printf.sprintf "Reg.of_int: %d" n);
  n

external to_int : t -> int = "%identity"
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (r : t) = r

let names =
  [| "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0"; "a1";
     "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
     "s8"; "s9"; "s10"; "s11"; "t3"; "t4"; "t5"; "t6" |]

let name r = names.(r)
let pp fmt r = Format.pp_print_string fmt (name r)
let x0 = 0
let zero = 0
let ra = 1
let sp = 2
let gp = 3
let tp = 4
let t0 = 5
let t1 = 6
let t2 = 7
let s0 = 8
let fp = 8
let s1 = 9
let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13
let a4 = 14
let a5 = 15
let a6 = 16
let a7 = 17
let s2 = 18
let s3 = 19
let s4 = 20
let s5 = 21
let s6 = 22
let s7 = 23
let s8 = 24
let s9 = 25
let s10 = 26
let s11 = 27
let t3 = 28
let t4 = 29
let t5 = 30
let t6 = 31
let all = List.init 32 (fun i -> i)

let caller_saved =
  [ ra; t0; t1; t2; a0; a1; a2; a3; a4; a5; a6; a7; t3; t4; t5; t6 ]

let callee_saved = [ sp; s0; s1; s2; s3; s4; s5; s6; s7; s8; s9; s10; s11 ]
let temporaries = [ t6; t5; t4; t3; t2; t1; t0 ]

type v = int

let v_of_int n =
  if n < 0 || n > 31 then invalid_arg (Printf.sprintf "Reg.v_of_int: %d" n);
  n

external v_to_int : v -> int = "%identity"
let v_equal (a : v) (b : v) = a = b
let v_name v = Printf.sprintf "v%d" v
let pp_v fmt v = Format.pp_print_string fmt (v_name v)
let all_v = List.init 32 (fun i -> i)
