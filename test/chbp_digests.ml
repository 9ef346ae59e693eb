(* Golden rewrite digests: one MD5 per guest and rewrite over everything a
   rewrite produces — the rewritten binary's sections, the statistics, the
   sorted fault and trap tables and the patches of lazy rewrites. The
   output is compared against golden/chbp_digests.txt by [dune runtest];
   a change that is meant to alter rewriting re-records the file with
   [dune promote] and explains why. *)

let buf = Buffer.create 4096

let add_int n = Buffer.add_string buf (string_of_int n); Buffer.add_char buf ' '

let add_bin (b : Binfile.t) =
  Buffer.add_string buf b.Binfile.name;
  add_int b.Binfile.entry;
  add_int b.Binfile.gp_value;
  Buffer.add_string buf (Format.asprintf "%a" Ext.pp b.Binfile.isa);
  List.iter
    (fun (s : Binfile.section) ->
      Buffer.add_string buf s.Binfile.sec_name;
      add_int s.Binfile.sec_addr;
      let p = s.Binfile.sec_perm in
      Buffer.add_string buf (Printf.sprintf "%b%b%b" p.Memory.r p.Memory.w p.Memory.x);
      Buffer.add_bytes buf s.Binfile.sec_data)
    b.Binfile.sections

let add_table tbl =
  let l = ref [] in
  Fault_table.iter tbl (fun k v -> l := (k, v) :: !l);
  List.iter (fun (k, v) -> add_int k; add_int v) (List.sort compare !l)

let add_state t =
  add_bin (Chbp.result t);
  Buffer.add_string buf (Format.asprintf "%a" Chbp.pp_stats (Chbp.stats t));
  add_table (Chbp.fault_table t);
  add_table (Chbp.trap_table t);
  List.iter (fun (a, r) -> add_int a; add_int (Reg.to_int r)) (Chbp.greg_sites t)

(* Lazy-rewrite roots: every 8-byte data word that points at an even,
   undiscovered address of a code section (jump-table entries of code
   hidden from static disassembly), in ascending order. The runtime
   rewrites lazily only in downgrades, where an extension instruction
   faults on the base core. *)
let lazy_roots (bin : Binfile.t) =
  let dis = Disasm.of_binfile bin in
  let code = Binfile.code_sections bin in
  let in_code a = List.exists (fun s -> Binfile.in_section s a) code in
  let roots = ref [] in
  List.iter
    (fun (s : Binfile.section) ->
      if not s.Binfile.sec_perm.Memory.x then
        let d = s.Binfile.sec_data in
        for k = 0 to (Bytes.length d / 8) - 1 do
          let a = Int64.to_int (Bytes.get_int64_le d (8 * k)) in
          if a land 1 = 0 && in_code a && Disasm.find dis a = None then
            roots := a :: !roots
        done)
    bin.Binfile.sections;
  List.sort_uniq compare !roots

let digest () =
  let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Buffer.clear buf;
  d

let chbp ~name ~label options bin =
  let t = Chbp.rewrite ~options bin in
  add_state t;
  List.iter
    (fun root ->
      add_int root;
      List.iter
        (function
          | Chbp.Patch_code { addr; bytes } -> add_int 0; add_int addr; Buffer.add_bytes buf bytes
          | Chbp.Patch_section { addr; bytes } -> add_int 1; add_int addr; Buffer.add_bytes buf bytes)
        (Chbp.extend t ~root))
    (if options.Chbp.mode = Chbp.Downgrade then lazy_roots bin else []);
  add_state t;
  Printf.printf "%s %s %s\n" name label (digest ())

let safer ~name bin =
  let t = Safer.rewrite ~mode:Chbp.Downgrade bin in
  add_bin (Safer.result t);
  add_int (Safer.checks_inserted t);
  add_int (Safer.address_map_size t);
  Printf.printf "%s safer %s\n" name (digest ())

let guest name bin =
  let d = Chbp.default_options in
  chbp ~name ~label:"empty" (d Chbp.Empty) bin;
  chbp ~name ~label:"downgrade" (d Chbp.Downgrade) bin;
  chbp ~name ~label:"upgrade" (d Chbp.Upgrade) bin;
  chbp ~name ~label:"downgrade-greg" { (d Chbp.Downgrade) with Chbp.use_gp = false } bin;
  safer ~name bin

let () =
  List.iter
    (fun n -> guest n (Specgen.build (Specgen.find n)))
    [ "perlbench_r"; "gcc_r"; "omnetpp_r"; "cam4_r" ];
  guest "matmul-ext" (Programs.matmul `Ext ~n:8);
  guest "matmul-base" (Programs.matmul `Base ~n:8);
  guest "vecadd-base" (Programs.vecadd `Base ~n:64);
  guest "branchy" (Programs.branchy ~rounds:10 ());
  guest "indirecty" (Programs.indirecty ~rounds:10 ())
