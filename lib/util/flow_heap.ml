(* Min-heap over flow ids keyed by a float tag, with lazy invalidation.

   The scheduler hot path needs "flow with the smallest finish tag among
   those satisfying a predicate", where tags change on every enqueue /
   dequeue and ties break toward the LOWEST flow id (the paper's
   deterministic tie-break, and exactly what a naive ascending-id scan
   keeping the first strictly-smaller tag produces).

   Instead of a decrease-key heap we push a fresh entry on every tag change
   and invalidate the old one lazily: each flow carries a version counter,
   bumped by [set] and [remove]; an entry is live iff its recorded version
   still matches.  A flow therefore has at most one live entry.  Stale
   entries are discarded as they surface at the top, and the arrays are
   compacted when stale entries dominate, so the heap never holds more than
   O(live) entries amortized.

   All operations are allocation-free ([min_accept] returns a flow id or
   [-1]); entries live in three parallel unboxed arrays. *)

type t = {
  n : int;
  version : int array;  (* bumped on every set/remove of the flow *)
  present : bool array;
  tag : float array;  (* current tag; meaningful only when present *)
  mutable heap_tag : float array;
  mutable heap_flow : int array;
  mutable heap_ver : int array;
  mutable size : int;
  mutable live : int;  (* = number of present flows *)
  (* Scratch for [min_accept]'s popped-but-rejected entries. *)
  mutable scr_tag : float array;
  mutable scr_flow : int array;
  mutable scr_ver : int array;
}

let create ~n =
  if n < 0 then Error.invalid "Flow_heap.create" "negative flow count";
  let cap = 16 in
  {
    n;
    version = Array.make (Int.max n 1) 0;
    present = Array.make (Int.max n 1) false;
    tag = Array.make (Int.max n 1) 0.;
    heap_tag = Array.make cap 0.;
    heap_flow = Array.make cap 0;
    heap_ver = Array.make cap 0;
    size = 0;
    live = 0;
    scr_tag = Array.make cap 0.;
    scr_flow = Array.make cap 0;
    scr_ver = Array.make cap 0;
  }

let cardinal t = t.live

let mem t ~flow =
  if flow < 0 || flow >= t.n then
    Error.invalidf "Flow_heap.mem" "flow %d out of range [0,%d)" flow t.n;
  t.present.(flow)

(* Entry ordering: (tag, flow id) lexicographic — lowest id wins ties. *)
let entry_before t i j =
  let c = Float.compare t.heap_tag.(i) t.heap_tag.(j) in
  c < 0 || (c = 0 && t.heap_flow.(i) < t.heap_flow.(j))

let entry_live t i = t.heap_ver.(i) = t.version.(t.heap_flow.(i))

let swap_entries t i j =
  let tg = t.heap_tag.(i) and fl = t.heap_flow.(i) and ver = t.heap_ver.(i) in
  t.heap_tag.(i) <- t.heap_tag.(j);
  t.heap_flow.(i) <- t.heap_flow.(j);
  t.heap_ver.(i) <- t.heap_ver.(j);
  t.heap_tag.(j) <- tg;
  t.heap_flow.(j) <- fl;
  t.heap_ver.(j) <- ver

let sift_up t start =
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_before t !i parent then begin
      swap_entries t !i parent;
      i := parent
    end
    else continue := false
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && entry_before t l !smallest then smallest := l;
    if r < t.size && entry_before t r !smallest then smallest := r;
    if !smallest <> !i then begin
      swap_entries t !i !smallest;
      i := !smallest
    end
    else continue := false
  done

(* Drop the root entry (already saved by the caller if needed). *)
let pop_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap_tag.(0) <- t.heap_tag.(t.size);
    t.heap_flow.(0) <- t.heap_flow.(t.size);
    t.heap_ver.(0) <- t.heap_ver.(t.size);
    sift_down t
  end

let raw_push t ~tag ~flow ~ver =
  t.heap_tag.(t.size) <- tag;
  t.heap_flow.(t.size) <- flow;
  t.heap_ver.(t.size) <- ver;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Rebuild the heap from its live entries only (bottom-up heapify). *)
let compact t =
  let w = ref 0 in
  for i = 0 to t.size - 1 do
    if entry_live t i then begin
      t.heap_tag.(!w) <- t.heap_tag.(i);
      t.heap_flow.(!w) <- t.heap_flow.(i);
      t.heap_ver.(!w) <- t.heap_ver.(i);
      incr w
    end
  done;
  t.size <- !w;
  for i = (t.size / 2) - 1 downto 0 do
    (* sift down from [i] *)
    let j = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !j) + 1 and r = (2 * !j) + 2 in
      let smallest = ref !j in
      if l < t.size && entry_before t l !smallest then smallest := l;
      if r < t.size && entry_before t r !smallest then smallest := r;
      if !smallest <> !j then begin
        swap_entries t !j !smallest;
        j := !smallest
      end
      else continue := false
    done
  done

let grow_heap t =
  let cap = Array.length t.heap_tag * 2 in
  let ntag = Array.make cap 0. and nflow = Array.make cap 0 and nver = Array.make cap 0 in
  Array.blit t.heap_tag 0 ntag 0 t.size;
  Array.blit t.heap_flow 0 nflow 0 t.size;
  Array.blit t.heap_ver 0 nver 0 t.size;
  t.heap_tag <- ntag;
  t.heap_flow <- nflow;
  t.heap_ver <- nver

let push_entry t ~tag ~flow ~ver =
  if t.size = Array.length t.heap_tag then begin
    (* Prefer reclaiming stale entries over growing. *)
    compact t;
    if t.size * 2 > Array.length t.heap_tag then grow_heap t
  end;
  raw_push t ~tag ~flow ~ver

let set t ~flow ~tag =
  if flow < 0 || flow >= t.n then
    Error.invalidf "Flow_heap.set" "flow %d out of range [0,%d)" flow t.n;
  if not t.present.(flow) then begin
    t.present.(flow) <- true;
    t.live <- t.live + 1
  end;
  t.version.(flow) <- t.version.(flow) + 1;
  t.tag.(flow) <- tag;
  push_entry t ~tag ~flow ~ver:t.version.(flow)

let remove t ~flow =
  if flow < 0 || flow >= t.n then
    Error.invalidf "Flow_heap.remove" "flow %d out of range [0,%d)" flow t.n;
  if t.present.(flow) then begin
    t.present.(flow) <- false;
    t.live <- t.live - 1;
    t.version.(flow) <- t.version.(flow) + 1
  end

let drop_stale_top t =
  while t.size > 0 && not (entry_live t 0) do
    pop_top t
  done

let grow_scratch t need =
  let cap = Int.max need (Array.length t.scr_tag * 2) in
  let ntag = Array.make cap 0. and nflow = Array.make cap 0 and nver = Array.make cap 0 in
  Array.blit t.scr_tag 0 ntag 0 (Array.length t.scr_tag);
  Array.blit t.scr_flow 0 nflow 0 (Array.length t.scr_flow);
  Array.blit t.scr_ver 0 nver 0 (Array.length t.scr_ver);
  t.scr_tag <- ntag;
  t.scr_flow <- nflow;
  t.scr_ver <- nver

let[@hot] min_accept t ~accept =
  (* Pop live-but-rejected entries into the scratch, stop at the first live
     accepted one (it is the (tag, id)-minimum by heap order), then push the
     scratch back.  [accept] must not call [set]/[remove] on this heap. *)
  let rejected = ref 0 in
  let found = ref (-1) in
  let continue = ref true in
  while !continue do
    drop_stale_top t;
    if t.size = 0 then continue := false
    else begin
      let flow = t.heap_flow.(0) in
      if accept flow then begin
        found := flow;
        continue := false
      end
      else begin
        if !rejected = Array.length t.scr_tag then grow_scratch t (!rejected + 1);
        t.scr_tag.(!rejected) <- t.heap_tag.(0);
        t.scr_flow.(!rejected) <- flow;
        t.scr_ver.(!rejected) <- t.heap_ver.(0);
        incr rejected;
        pop_top t
      end
    end
  done;
  for i = 0 to !rejected - 1 do
    push_entry t ~tag:t.scr_tag.(i) ~flow:t.scr_flow.(i) ~ver:t.scr_ver.(i)
  done;
  !found

let min t = min_accept t ~accept:(fun _ -> true)
