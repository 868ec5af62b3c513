(* In-memory span recorder for the traced runs. Spans are recorded by the
   benchmark around its calls into each layer's public functions; nothing
   inside the program under test is instrumented. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  label : string;
  start_ns : int;
  stop_ns : int;
}

type t = {
  clock : unit -> int;
  mutable next_id : int;
  mutable current : int;  (** innermost open span, -1 when none *)
  mutable closed : span list;  (** newest first *)
}

let create ~clock = { clock; next_id = 0; current = -1; closed = [] }

let with_span t label f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start_ns = t.clock () in
  let finish () =
    let stop_ns = t.clock () in
    t.current <- parent;
    t.closed <- { id; parent; label; start_ns; stop_ns } :: t.closed
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration s = s.stop_ns - s.start_ns

(* Self time of a span is its duration minus the durations of its direct
   children; summed per label, sorted by label. *)
let self_times spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let per_label = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      Hashtbl.replace per_label s.label
        (self + Option.value ~default:0 (Hashtbl.find_opt per_label s.label)))
    spans;
  List.sort compare (Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) per_label [])

(* total duration per label (children included) *)
let total_times spans =
  let per_label = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace per_label s.label
        (duration s + Option.value ~default:0 (Hashtbl.find_opt per_label s.label)))
    spans;
  List.sort compare (Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) per_label [])

let to_json_line s =
  Printf.sprintf
    "{\"id\": %d, \"parent\": %d, \"label\": %S, \"start_ns\": %d, \"stop_ns\": %d}"
    s.id s.parent s.label s.start_ns s.stop_ns

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_json_line s);
          output_char oc '\n')
        spans)
