module Json = Wfs_util.Json
module Jsonl = Wfs_util.Jsonl

let schema = "wfs-bench/1-journal"

type writer = { w : Jsonl.writer; mutex : Mutex.t }

let entry_of_json v =
  match (Option.bind (Json.member "key" v) Json.to_str, Json.member "value" v) with
  | Some key, Some value -> Some (key, value)
  | _ -> None

let create ?(schema = schema) ~path ~params () =
  let w = Jsonl.create ~path ~schema params in
  Jsonl.flush w;
  { w; mutex = Mutex.create () }

let reopen ~path =
  let keep v = Option.is_some (entry_of_json v) in
  { w = Jsonl.reopen ~path ~keep; mutex = Mutex.create () }

let append t ~key ~value =
  let line = Json.Obj [ ("key", Json.Str key); ("value", value) ] in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Jsonl.append t.w line;
      Jsonl.flush t.w)

let close t = Jsonl.close t.w

type contents = {
  params : (string * Json.t) list;
  entries : (string * Json.t) list;
}

let load ?(schema = schema) ~path () =
  Jsonl.load ~who:"Journal.load" ~schema ~path
    ~header:(fun params -> Some params)
    ~line:(Jsonl.tree (fun _ v -> Jsonl.decoded (entry_of_json v)))
  |> Result.map (fun (params, entries) -> { params; entries })

let resume ?(schema = schema) ~who ~path ~params () =
  if not (Sys.file_exists path) then
    (create ~schema ~path ~params (), { params; entries = [] })
  else
    match load ~schema ~path () with
    | Error e -> Wfs_util.Error.raise_ e
    | Ok contents ->
        let norm l =
          List.sort (fun (k, _) (k', _) -> String.compare k k') l
          |> List.map (fun (k, v) -> (k, Json.to_string ~pretty:false v))
        in
        let same (k, v) (k', v') = String.equal k k' && String.equal v v' in
        if not (List.equal same (norm contents.params) (norm params)) then
          Wfs_util.Error.bad_spec ~who
            "journal was written for different settings"
            ~context:
              [
                ("path", path);
                ( "journal",
                  Json.to_string ~pretty:false (Json.Obj contents.params) );
                ("run", Json.to_string ~pretty:false (Json.Obj params));
              ];
        (reopen ~path, contents)
