module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl

type format = Jsonl of Jsonl.writer | Csv of { oc : out_channel; buf : Buffer.t }

type t = {
  format : format;
  n_flows : int;
  mutable written : int;
  mutable closed : bool;
}

let make format (hdr : Trace.header) =
  { format; n_flows = hdr.Trace.n_flows; written = 0; closed = false }

let jsonl ~path (hdr : Trace.header) =
  make (Jsonl (Jsonl.create ~path ~schema:Trace.schema (Trace.header_fields hdr))) hdr

let csv_columns n_flows =
  let base = [ "slot"; "selected"; "virtual_time"; "lag_sum" ] in
  let per_flow i =
    [
      Printf.sprintf "q%d" i;
      Printf.sprintf "good%d" i;
      Printf.sprintf "tag%d" i;
      Printf.sprintf "credit%d" i;
    ]
  in
  base @ List.concat (List.init n_flows per_flow)

let csv ~path (hdr : Trace.header) =
  let oc = open_out_bin path in
  output_string oc (String.concat "," (csv_columns hdr.Trace.n_flows));
  output_char oc '\n';
  make (Csv { oc; buf = Buffer.create 256 }) hdr

(* One reused buffer per sink: the per-sample cost is formatting straight
   into it plus one [output_string]; nothing accumulates in memory (bounded
   streaming).  Both formats share the JSON codec's number writer. *)

let write_csv buf (s : Trace.sample) =
  Json.add_int buf s.Trace.slot;
  Buffer.add_char buf ',';
  Option.iter (Json.add_int buf) s.Trace.selected;
  Buffer.add_char buf ',';
  Option.iter (Json.add_float buf) s.Trace.virtual_time;
  Buffer.add_char buf ',';
  Option.iter (Json.add_int buf) s.Trace.lag_sum;
  Array.iter
    (fun (f : Trace.flow_sample) ->
      Buffer.add_char buf ',';
      Json.add_int buf f.Trace.queue;
      Buffer.add_char buf ',';
      Buffer.add_char buf (if f.Trace.good then '1' else '0');
      Buffer.add_char buf ',';
      Option.iter (Json.add_float buf) f.Trace.tag;
      Buffer.add_char buf ',';
      Option.iter (Json.add_int buf) f.Trace.credit)
    s.Trace.flows;
  Buffer.add_char buf '\n'

let write t (s : Trace.sample) =
  if t.closed then Error.bad_config ~who:"Sink.write" "sink already closed";
  if Array.length s.Trace.flows <> t.n_flows then
    Error.bad_config ~who:"Sink.write" "sample width disagrees with header";
  (match t.format with
  | Jsonl w -> Jsonl.append_with w Trace.add_sample s
  | Csv { oc; buf } ->
      Buffer.clear buf;
      write_csv buf s;
      Buffer.output_buffer oc buf);
  t.written <- t.written + 1

let written t = t.written

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.format with Jsonl w -> Jsonl.close w | Csv { oc; _ } -> close_out oc
  end
