(* Host fingerprint stamped on every result: figures are compared only
   between runs on like hosts. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let field line =
  match String.index_opt line ':' with
  | Some i ->
      let part a b = String.trim (String.sub line a (b - a)) in
      Some (part 0 i, part (i + 1) (String.length line))
  | None -> None

let cpu_model () =
  List.find_map
    (fun l -> match field l with Some ("model name", v) -> Some v | _ -> None)
    (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

(* The filesystem holding [path]: the longest mount point that prefixes
   its absolute form. *)
let fs_type path =
  let path =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path
  in
  let under mnt =
    mnt = "/"
    || String.length path >= String.length mnt
       && String.sub path 0 (String.length mnt) = mnt
       && (String.length path = String.length mnt || path.[String.length mnt] = '/')
  in
  List.fold_left
    (fun (best_len, best) l ->
      match String.split_on_char ' ' l with
      | _ :: mnt :: fs :: _ when under mnt && String.length mnt > best_len ->
          (String.length mnt, fs)
      | _ -> (best_len, best))
    (-1, "unknown")
    (read_lines "/proc/self/mounts")
  |> snd

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  List.find_map
    (fun l ->
      match field l with
      | Some ("VmHWM", v) ->
          Scanf.sscanf_opt v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:0.0

let fingerprint ~workers ~cache_dir =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("cpu", cpu_model ());
    ("pool_workers", string_of_int workers);
    ("cache_fs", fs_type cache_dir) ]
