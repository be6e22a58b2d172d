(* Workload definitions and their seeded inputs.

   An input is generated once, before anything is timed, and marshaled to
   a file; the measuring process only loads it. Generation therefore
   leaves no garbage in the measured process's heap or peak RSS. *)

open Divm

type backend = Local of int  (** domains *) | Multi of int  (** workers *)

type spec = {
  name : string;
  queries : string list;  (** TPC-H views maintained by one engine *)
  backend : backend;
  batch : int;  (** tuples per [Engine.apply_batch] call *)
  scale : float;  (** TPC-H scale of the generated tables *)
  base_share : float;  (** leading share of the stream bulk-loaded *)
  window : int option;
      (** churn: every insert batch is retracted this many insert
          batches later, so stored state stays at a fixed size *)
  reads : bool;  (** read every view after every batch *)
}

(* Why each workload exists is recorded in BENCHMARK.json. The sizes keep
   set-up under half a second per pass, give every pass dozens of
   batches or more, and keep the oracle's re-evaluation to seconds. *)
let specs =
  [
    {
      name = "churn-local";
      queries = [ "Q3"; "Q17"; "Q22" ];
      backend = Local 1;
      batch = 250;
      scale = 14.;
      base_share = 0.08;
      window = Some 40;
      reads = true;
    };
    {
      name = "shuffle-mp2";
      queries = [ "Q3"; "Q7"; "Q17" ];
      backend = Multi 2;
      batch = 250;
      scale = 6.;
      base_share = 0.05;
      window = None;
      reads = true;
    };
  ]

let find_spec name =
  match List.find_opt (fun s -> s.name = name) specs with
  | Some s -> s
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " (List.map (fun s -> s.name) specs)))

(* One engine maintaining every view of the spec. *)
let workload spec =
  let ws = List.map Workload.find spec.queries in
  let w0 = List.hd ws in
  {
    w0 with
    Workload.wname = String.concat "+" spec.queries;
    maps = List.concat_map (fun w -> w.Workload.maps) ws;
  }

let view_names spec = List.map fst (workload spec).Workload.maps

(* Relations whose updates fire at least one statement. *)
let relations spec =
  let prog = Workload.compile (workload spec) in
  List.filter_map
    (fun (tr : Prog.trigger) ->
      if tr.stmts = [] then None else Some tr.relation)
    prog.triggers

type t = {
  base : (string * Gmr.t) list;  (** bulk-loaded, one entry per relation *)
  batches : (string * Gmr.t) array;  (** applied in order after the load *)
  net : (string * Gmr.t) list;
      (** base plus every batch, per relation: what the views must equal
          a re-evaluation over *)
}

(* The form the measuring process holds: every part marshaled to a
   string. Strings are opaque to the GC, so the input adds nothing to
   the marking work of the engine under test, and each batch is decoded
   just before it is applied, like a batch arriving from a feed. *)
type packed = {
  p_base : string;
  p_batches : (string * string) array;  (** relation, marshaled batch *)
  p_net : string;
  base_rows : int;
  tuples : int;  (** update tuples over all batches *)
}

let pack (x : t) =
  let m v = Marshal.to_string v [] in
  {
    p_base = m x.base;
    p_batches = Array.map (fun (r, b) -> (r, m b)) x.batches;
    p_net = m x.net;
    base_rows = List.fold_left (fun a (_, b) -> a + Gmr.cardinal b) 0 x.base;
    tuples = Array.fold_left (fun a (_, b) -> a + Gmr.cardinal b) 0 x.batches;
  }

let base (p : packed) : (string * Gmr.t) list = Marshal.from_string p.p_base 0
let batch (p : packed) i : string * Gmr.t =
  let r, s = p.p_batches.(i) in
  (r, Marshal.from_string s 0)
let net (p : packed) : (string * Gmr.t) list = Marshal.from_string p.p_net 0

let negate b =
  let g = Gmr.create ~size:(Gmr.cardinal b) () in
  Gmr.iter (fun tup m -> Gmr.add g tup (-.m)) b;
  g

(* Coalesce a run of per-relation batches into one batch per relation,
   in first-seen order. *)
let coalesce batches =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun (r, b) ->
      match Hashtbl.find_opt tbl r with
      | Some g -> Gmr.union_into g b
      | None ->
          Hashtbl.add tbl r (Gmr.copy b);
          order := r :: !order)
    batches;
  List.rev_map (fun r -> (r, Hashtbl.find tbl r)) !order

(* The churn schedule, one group of [apply_batch] calls per insert batch:
   insert batch [i] comes with the retraction of insert batch
   [i - window], in the same call when both are of one relation (so
   batch pre-aggregation can cancel), else in a call of its own. After
   group [i] the live contents are the base plus inserts
   [i - window + 1 .. i]. *)
let churn ~window inserts =
  Array.mapi
    (fun i (r, b) ->
      if i < window then [ (r, b) ]
      else
        let r', b' = inserts.(i - window) in
        if r' = r then begin
          let g = negate b' in
          Gmr.union_into g b;
          [ (r, g) ]
        end
        else [ (r', negate b'); (r, b) ])
    inserts

let net_of ~rels base batches =
  let acc = List.map (fun r -> (r, Gmr.create ())) rels in
  List.iter (fun (r, b) -> Gmr.union_into (List.assoc r acc) b) base;
  Array.iter (fun (r, b) -> Gmr.union_into (List.assoc r acc) b) batches;
  acc

(* The base database and the insert batches that follow it. *)
let split spec ~seed =
  let rels = relations spec in
  let stream =
    List.filter
      (fun (r, _) -> List.mem r rels)
      (Tpch.Gen.stream { Tpch.Gen.scale = spec.scale; seed }
         ~batch_size:spec.batch)
  in
  let total = List.fold_left (fun a (_, b) -> a + Gmr.cardinal b) 0 stream in
  let cut = int_of_float (float_of_int total *. spec.base_share) in
  let rec go acc n = function
    | (_, b) as x :: tl when n < cut -> go (x :: acc) (n + Gmr.cardinal b) tl
    | rest -> (List.rev acc, rest)
  in
  let prefix, suffix = go [] 0 stream in
  (rels, coalesce prefix, Array.of_list suffix)

let generate spec ~seed =
  let rels, base, inserts = split spec ~seed in
  let batches =
    match spec.window with
    | None -> inserts
    | Some window -> Array.of_list (List.concat (Array.to_list (churn ~window inserts)))
  in
  { base; batches; net = net_of ~rels base batches }

let save file (x : packed) =
  let oc = open_out_bin file in
  Marshal.to_channel oc x [];
  close_out oc

let load file : packed =
  let ic = open_in_bin file in
  let x = (Marshal.from_channel ic : packed) in
  close_in ic;
  x
