module Json = Wfs_util.Json
module Error = Wfs_util.Error

type format = Jsonl | Csv

type t = {
  oc : out_channel;
  format : format;
  n_flows : int;
  buf : Buffer.t;
  mutable written : int;
  mutable closed : bool;
}

let jsonl ~path (hdr : Trace.header) =
  let oc = open_out_bin path in
  output_string oc (Trace.header_to_string hdr);
  output_char oc '\n';
  {
    oc;
    format = Jsonl;
    n_flows = hdr.Trace.n_flows;
    buf = Buffer.create 256;
    written = 0;
    closed = false;
  }

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
  {
    oc;
    format = Csv;
    n_flows = hdr.Trace.n_flows;
    buf = Buffer.create 256;
    written = 0;
    closed = false;
  }

(* One reused buffer per sink: the per-sample cost is formatting straight
   into it plus one [output_string]; nothing accumulates in memory (bounded
   streaming).  Both formats share the JSON codec's number writer. *)

let write_csv t (s : Trace.sample) =
  let buf = t.buf in
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
  Buffer.clear t.buf;
  (match t.format with
  | Jsonl ->
      Json.to_buffer ~pretty:false t.buf (Trace.sample_to_json s);
      Buffer.add_char t.buf '\n'
  | Csv -> write_csv t s);
  Buffer.output_buffer t.oc t.buf;
  t.written <- t.written + 1

let written t = t.written

let close t =
  if not t.closed then begin
    t.closed <- true;
    flush t.oc;
    close_out t.oc
  end
