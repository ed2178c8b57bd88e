module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl
module Fairness = Wfs_core.Fairness

let schema = "wfs-windows/2"

type window = Fairness.window = {
  index : int;
  start_slot : int;
  end_slot : int;
  flows : int;
  jain : float;
  gap : float;
  arrivals : int;
  delivered : int;
  dropped : int;
  backlog : int;
  loss : float;
}

let window_to_json w =
  Json.Obj
    [
      ("i", Json.Int w.index);
      ("s", Json.Int w.start_slot);
      ("e", Json.Int w.end_slot);
      ("flows", Json.Int w.flows);
      ("jain", Json.of_float_ext w.jain);
      ("gap", Json.of_float_ext w.gap);
      ("arr", Json.Int w.arrivals);
      ("del", Json.Int w.delivered);
      ("drop", Json.Int w.dropped);
      ("bkl", Json.Int w.backlog);
      ("loss", Json.of_float_ext w.loss);
    ]

let window_of_json v =
  let ( let* ) = Option.bind in
  let int key = Option.bind (Json.member key v) Json.to_int in
  let fl key = Option.bind (Json.member key v) Json.to_float_ext in
  let* index = int "i" in
  let* start_slot = int "s" in
  let* end_slot = int "e" in
  let* flows = int "flows" in
  let* jain = fl "jain" in
  let* gap = fl "gap" in
  let* arrivals = int "arr" in
  let* delivered = int "del" in
  let* dropped = int "drop" in
  let* backlog = int "bkl" in
  let* loss = fl "loss" in
  Some
    {
      index;
      start_slot;
      end_slot;
      flows;
      jain;
      gap;
      arrivals;
      delivered;
      dropped;
      backlog;
      loss;
    }

let window_to_string w = Json.to_string ~pretty:false (window_to_json w)

let window_of_string line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> window_of_json v

let feq a b = Float.compare a b = 0

let window_equal a b =
  a.index = b.index && a.start_slot = b.start_slot && a.end_slot = b.end_slot
  && a.flows = b.flows && feq a.jain b.jain && feq a.gap b.gap && a.arrivals = b.arrivals
  && a.delivered = b.delivered && a.dropped = b.dropped
  && a.backlog = b.backlog && feq a.loss b.loss

type t = Fairness.t

let create = Fairness.create
let observe = Fairness.observe
let flush = Fairness.flush
let windows = Fairness.windows
let observer = Fairness.observer

(* --- file round-trip --- *)

type contents = { window : int; windows : window list }

let write ~path ~window windows =
  if window < 1 then Error.bad_config ~who:"Windowed.write" "window must be >= 1";
  Jsonl.write ~path ~schema [ ("window", Json.Int window) ] window_to_json windows

let load ~path =
  Jsonl.load ~who:"Windowed.load" ~schema ~path
    ~header:(fun fields ->
      match Option.bind (List.assoc_opt "window" fields) Json.to_int with
      | Some window when window >= 1 -> Some window
      | Some _ | None -> None)
    ~line:(Jsonl.tree (fun _ v -> Jsonl.decoded (window_of_json v)))
  |> Result.map (fun (window, windows) -> { window; windows })
