(* Arithmetic behind the benchmark's percentiles and per-layer ledger. *)

open Perfbench_core

let close = Alcotest.float 1e-9

let quantile () =
  let a = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.check close "min" 1.0 (Stats.quantile a 0.0);
  Alcotest.check close "max" 4.0 (Stats.quantile a 1.0);
  Alcotest.check close "median interpolates" 2.5 (Stats.median a);
  Alcotest.check close "p90" 3.7 (Stats.quantile a 0.9);
  Alcotest.check close "single" 7.0 (Stats.median [| 7.0 |]);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 4.0; 1.0; 3.0; 2.0 |] a;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: no samples")
    (fun () -> ignore (Stats.median [||]))

let beyond () =
  Alcotest.(check int) "p90 of 100" 10 (Stats.beyond 100 0.9);
  Alcotest.(check int) "p90 of 91" 9 (Stats.beyond 91 0.9);
  Alcotest.(check int) "p95 of 200" 10 (Stats.beyond 200 0.95);
  Alcotest.(check int) "p95 of 181" 9 (Stats.beyond 181 0.95);
  Alcotest.(check int) "median of 5" 2 (Stats.beyond 5 0.5)

let geomean () =
  Alcotest.check close "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.check close "constant" 1.05 (Stats.geomean [ 1.05; 1.05; 1.05 ])

let covered () =
  Alcotest.check close "disjoint" 3.0
    (Trace.covered ~lo:0.0 ~hi:10.0 [ (0.0, 1.0); (5.0, 7.0) ]);
  Alcotest.check close "overlap counted once" 4.0
    (Trace.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (2.0, 5.0) ]);
  Alcotest.check close "clipped" 1.5
    (Trace.covered ~lo:2.0 ~hi:4.0 [ (0.0, 3.0); (3.5, 9.0) ]);
  Alcotest.check close "outside" 0.0 (Trace.covered ~lo:0.0 ~hi:1.0 [ (2.0, 3.0) ])

let sp id name parent start stop = { Trace.id; name; parent; op = -1; start; stop }

let self_time () =
  (* op [0, 10] holds rewrite [1, 4] and run [4, 9]; run holds a child
     that spills past its parent's end *)
  let spans =
    [ sp 0 "bench.op" (-1) 0.0 10.0;
      sp 1 "rewriter.rewrite" 0 1.0 4.0;
      sp 2 "machine.run" 0 4.0 9.0;
      sp 3 "runtime.fault" 2 6.0 9.5 ]
  in
  let self = List.map (fun (s, t) -> (s.Trace.name, t)) (Trace.self_times spans) in
  Alcotest.check close "op minus children" 2.0 (List.assoc "bench.op" self);
  Alcotest.check close "leaf is its duration" 3.0 (List.assoc "rewriter.rewrite" self);
  Alcotest.check close "child clipped to parent" 2.0 (List.assoc "machine.run" self);
  let total = List.fold_left (fun a (_, t) -> a +. t) 0.0 self in
  Alcotest.check close "self times tile the root" 10.5 total

let ledger () =
  let spans =
    [ sp 0 "cache.load" (-1) 0.0 1.0;
      sp 1 "cache.load" (-1) 2.0 3.0;
      sp 2 "machine.run" (-1) 3.0 7.0 ]
  in
  let by = Trace.self_by_name spans in
  Alcotest.(check (list (pair string close)))
    "summed per name" [ ("cache.load", 2.0); ("machine.run", 4.0) ] by;
  Alcotest.(check string) "layer" "cache" (Trace.layer "cache.load");
  let attributed = List.fold_left (fun a (_, t) -> a +. t) 0.0 by in
  Alcotest.check close "unattributed share" 0.25
    (Trace.unattributed ~wall:8.0 ~attributed)

let recorder () =
  let t = Trace.create ~on:true in
  let v =
    Trace.span t "bench.op" (fun () -> Trace.span t ~op:3 "machine.run" (fun () -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  (match Trace.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "machine.run" inner.Trace.name;
      Alcotest.(check int) "nested" outer.Trace.id inner.Trace.parent;
      Alcotest.(check int) "op id" 3 inner.Trace.op
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (try Trace.span t "bench.fail" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "closed on raise" (-1) (Trace.current t);
  let off = Trace.create ~on:false in
  Alcotest.(check int) "off records nothing" 0
    (Trace.span off "x" (fun () -> List.length (Trace.spans off)))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "quantile" `Quick quantile;
          Alcotest.test_case "beyond" `Quick beyond;
          Alcotest.test_case "geomean" `Quick geomean ] );
      ( "trace",
        [ Alcotest.test_case "covered" `Quick covered;
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "ledger" `Quick ledger;
          Alcotest.test_case "recorder" `Quick recorder ] ) ]
