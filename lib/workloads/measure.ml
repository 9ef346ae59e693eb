type run = {
  cycles : int;
  exit_code : int;
  retired : int;
  vector_retired : int;
  indirect_retired : int;
}

let snapshot m ~exit_code =
  { cycles = Machine.cycles m;
    exit_code;
    retired = Machine.retired m;
    vector_retired = Machine.vector_retired m;
    indirect_retired = Machine.indirect_retired m }

let default_fuel = 50_000_000

let native ?config ?(fuel = default_fuel) ?before_run ?after_run bin ~isa =
  let mem = Loader.load bin in
  let m = Machine.create ?config ~mem ~isa () in
  Loader.init_machine m bin;
  (match before_run with Some f -> f m | None -> ());
  match Machine.run ~fuel m with
  | Machine.Exited code ->
      (match after_run with Some f -> f m | None -> ());
      snapshot m ~exit_code:code
  | Machine.Faulted f ->
      failwith (Printf.sprintf "%s: %s" bin.Binfile.name (Fault.to_string f))
  | Machine.Fuel_exhausted -> failwith (bin.Binfile.name ^ ": fuel exhausted")

let native_until_fault ?config ?(fuel = default_fuel) bin ~isa =
  let mem = Loader.load bin in
  let m = Machine.create ?config ~mem ~isa () in
  Loader.init_machine m bin;
  match Machine.run ~fuel m with
  | Machine.Faulted _ -> snapshot m ~exit_code:(-1)
  | Machine.Exited _ -> failwith (bin.Binfile.name ^ ": completed without faulting")
  | Machine.Fuel_exhausted -> failwith (bin.Binfile.name ^ ": fuel exhausted")

(* The [before_run]/[after_run] hooks let a caller touch the machine after
   loading but before execution (seed a persisted translation plan) and
   after a successful run (export one) without this library knowing about
   the cache. *)
let chimera ?config ?(fuel = default_fuel) ?before_run ?after_run ctx ~isa =
  let rt = Chimera_rt.create ctx in
  let m = Machine.create ?config ~mem:(Chimera_rt.load rt) ~isa () in
  (match before_run with Some f -> f m | None -> ());
  match Chimera_rt.run rt ~fuel m with
  | Machine.Exited code ->
      (match after_run with Some f -> f m | None -> ());
      (snapshot m ~exit_code:code, Chimera_rt.counters rt)
  | Machine.Faulted f ->
      failwith
        (Printf.sprintf "%s (chimera): %s"
           (Chimera_rt.rewritten rt).Binfile.name (Fault.to_string f))
  | Machine.Fuel_exhausted -> failwith "chimera run: fuel exhausted"

let safer ?config ?(fuel = default_fuel) ?before_run ?after_run rw ~isa =
  let rt = Safer.runtime rw in
  let isa = Ext.union isa (Ext.of_list [ Ext.X ]) in
  let m = Machine.create ?config ~mem:(Safer.load rt) ~isa () in
  (match before_run with Some f -> f m | None -> ());
  match Safer.run rt ~fuel m with
  | Machine.Exited code ->
      (match after_run with Some f -> f m | None -> ());
      (snapshot m ~exit_code:code, Safer.counters rt)
  | Machine.Faulted f ->
      failwith (Printf.sprintf "safer run: %s" (Fault.to_string f))
  | Machine.Fuel_exhausted -> failwith "safer run: fuel exhausted"

let armore ?config ?(fuel = default_fuel) ?before_run ?after_run rw ~isa =
  let rt = Armore.runtime rw in
  let m = Machine.create ?config ~mem:(Armore.load rt) ~isa () in
  (match before_run with Some f -> f m | None -> ());
  match Armore.run rt ~fuel m with
  | Machine.Exited code ->
      (match after_run with Some f -> f m | None -> ());
      (snapshot m ~exit_code:code, Armore.counters rt)
  | Machine.Faulted f ->
      failwith (Printf.sprintf "armore run: %s" (Fault.to_string f))
  | Machine.Fuel_exhausted -> failwith "armore run: fuel exhausted"

let check_exit ~expected run =
  if run.exit_code <> expected then
    failwith
      (Printf.sprintf "exit code mismatch: expected %d, got %d" expected run.exit_code);
  run
