(* Spans recorded by the benchmark around its own calls into each layer,
   kept in memory and written out when the benchmark ends. *)

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  start : float;
  stop : float;
}

type t = {
  on : bool;
  mutable spans : span list;  (* reverse completion order *)
  mutable next : int;
  mutable open_ids : int list;  (* innermost first *)
}

let create ~on = { on; spans = []; next = 0; open_ids = [] }
let on t = t.on

let add t ~name ~parent ~op ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; parent; op; start; stop } :: t.spans;
  id

let current t = match t.open_ids with p :: _ -> p | [] -> -1

let span t ?(op = -1) name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = current t in
    t.open_ids <- id :: t.open_ids;
    let start = Unix.gettimeofday () in
    let close () =
      t.open_ids <- List.tl t.open_ids;
      t.spans <-
        { id; name; parent; op; start; stop = Unix.gettimeofday () } :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans t = List.rev t.spans

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) ->
            if a <= lb then (total, Some (la, Float.max lb b))
            else (total +. (lb -. la), Some (a, b)))
      (0.0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let dur = s.stop -. s.start in
      (s, dur -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all kids s.id)))
    spans

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let unattributed ~wall ~attributed =
  if wall <= 0.0 then invalid_arg "Trace.unattributed: wall must be positive";
  1.0 -. (attributed /. wall)

let to_jsonl oc spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.parent s.op s.start s.stop)
    spans
