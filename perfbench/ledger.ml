(* Spans recorded by the benchmark around its calls into the engine's
   public entry points: name, start, end, parent, and the batch they
   belong to (-1 for set-up). Kept in memory, written at exit. A span's
   self time is its duration minus the time its children cover. *)

type span = {
  name : string;
  batch : int;
  parent : int;  (** index into the span array, -1 at the root *)
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []
let enabled = ref false

let span ?(batch = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !count in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; batch; parent; t0 = Unix.gettimeofday (); t1 = nan } in
    spans := s :: !spans;
    incr count;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

let all () = Array.of_list (List.rev !spans)

(* Per span name: (calls, total seconds, self seconds), in first-seen
   order. *)
let self_times () =
  let a = all () in
  let child = Array.make (Array.length a) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0))
    a;
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i s ->
      let d = s.t1 -. s.t0 in
      match Hashtbl.find_opt tbl s.name with
      | Some (n, tot, self) ->
          Hashtbl.replace tbl s.name (n + 1, tot +. d, self +. d -. child.(i))
      | None ->
          Hashtbl.add tbl s.name (1, d, d -. child.(i));
          order := s.name :: !order)
    a;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* Chrome trace_event JSON: one complete event per span, its batch and
   parent index in [args]. *)
let write file =
  let a = all () in
  let origin = if Array.length a = 0 then 0. else a.(0).t0 in
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"batch\": %d}}"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        i s.parent s.batch)
    a;
  output_string oc "\n]}\n";
  close_out oc
