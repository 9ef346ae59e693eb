type prepared = Native | Rewritten of Chimera_rt.t

type t = {
  orig : Binfile.t;
  costs : Costs.t;
  config : Machine.config;
  per_class : (Ext.t * prepared) list;
}

let prepare ~costs ~upgrade bin cls =
  if Ext.subset bin.Binfile.isa cls then
    if
      upgrade
      && Ext.mem Ext.V cls
      && not (Ext.mem Ext.V bin.Binfile.isa)
    then
      (* the class offers the vector extension the binary does not use:
         try upgrading; fall back to native if nothing was vectorizable *)
      let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Upgrade) bin in
      if (Chbp.stats ctx).Chbp.sites > 0 then Rewritten (Chimera_rt.create ~costs ctx)
      else Native
    else Native
  else
    let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
    Rewritten (Chimera_rt.create ~costs ctx)

let deploy ?(costs = Costs.default) ?(config = Machine.default_config) ?(upgrade = true)
    bin ~cores =
  let classes = List.sort_uniq compare cores in
  { orig = bin;
    costs;
    config;
    per_class = List.map (fun c -> (c, prepare ~costs ~upgrade bin c)) classes }

let original t = t.orig
let costs t = t.costs
let config t = t.config
let classes t = List.map fst t.per_class

let prepared_for t cls =
  match List.assoc_opt cls t.per_class with
  | Some p -> p
  | None -> raise Not_found

let binary_for t cls =
  match prepared_for t cls with
  | Native -> t.orig
  | Rewritten rt -> Chimera_rt.rewritten rt

let run t ~isa ~fuel =
  match prepared_for t isa with
  | Native ->
      let mem = Loader.load t.orig in
      let m = Machine.create ~config:t.config ~costs:t.costs ~mem ~isa () in
      Loader.init_machine m t.orig;
      (Machine.run ~fuel m, m)
  | Rewritten rt ->
      let m =
        Machine.create ~config:t.config ~costs:t.costs ~mem:(Chimera_rt.load rt) ~isa ()
      in
      (Chimera_rt.run rt ~fuel m, m)

let counters t =
  let acc = Counters.create () in
  List.iter
    (fun (_, p) ->
      match p with
      | Native -> ()
      | Rewritten rt -> Counters.add acc (Chimera_rt.counters rt))
    t.per_class;
  acc

let rewrite_stats t =
  List.filter_map
    (fun (cls, p) ->
      match p with
      | Native -> None
      | Rewritten rt -> Some (cls, Chbp.stats (Chimera_rt.chbp rt)))
    t.per_class
