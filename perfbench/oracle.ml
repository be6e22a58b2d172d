(* Correctness oracle: every maintained view must equal a from-scratch
   evaluation of its calculus definition by the reference interpreter
   ([Interp]), which shares no code with the compiled triggers, over the
   net base contents the input leaves behind. *)

open Divm

(* Float aggregates are compared with a relative tolerance: summation
   order differs between the triggers and the interpreter, and Q1's sums
   (around 1e10) already differ by ~1e-14 relative. The absolute floor
   covers entries that cancel to zero under retractions. *)
let rel_tol = 1e-9
let abs_tol = 1e-6

let close a b =
  Float.abs (a -. b) <= Float.max abs_tol (rel_tol *. Float.max (Float.abs a) (Float.abs b))

(* [None] when [got] equals [want] within tolerance, else a description
   of the first differing key. A key missing on one side counts as 0. *)
let diff ~want ~got =
  let first = ref None in
  let check tup a b =
    if !first = None && not (close a b) then
      first :=
        Some
          (Format.asprintf "key %a: want %.17g, got %.17g" Vtuple.pp tup a b)
  in
  Gmr.iter (fun tup a -> check tup a (Gmr.mult got tup)) want;
  Gmr.iter
    (fun tup b -> if not (Gmr.mem want tup) then check tup 0. b)
    got;
  !first

let expected (w : Workload.t) net =
  let src = Interp.source_of_rels net in
  List.map (fun (name, e) -> (name, snd (Interp.eval_closed src e))) w.maps

(* Errors for every view that differs from [want]. *)
let check ~want views =
  List.filter_map
    (fun (name, w) ->
      match List.assoc_opt name views with
      | None -> Some (name ^ ": view not read")
      | Some got ->
          Option.map (fun d -> name ^ ": " ^ d) (diff ~want:w ~got))
    want
