open Divm_ring
open Divm_calc
open Divm_calc.Calc
open Divm_storage
open Divm_compiler
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Par = Divm_par.Par

(* Registry instruments fed once per batch (never per record op): the
   hot-path counter is the runtime's private [ops] counter, folded into
   the global totals when the trigger completes. *)
let m_record_ops = Obs.Counter.make "divm_record_ops_total"
let m_batches = Obs.Counter.make "divm_batches_total"
let m_singles = Obs.Counter.make "divm_single_updates_total"
let m_tuples = Obs.Counter.make "divm_tuples_total"
let h_batch_seconds = Obs.Histogram.make "divm_batch_seconds"
let g_stored_tuples = Obs.Gauge.make "divm_stored_tuples"

(* The storage layer's probe counters ([Counter.make] is idempotent per
   name, so these are [Pool]'s own instruments): the profiler reads them
   around each statement firing to attribute probe work per statement. *)
let m_probes = Obs.Counter.make "divm_index_probes_total"
let m_probe_misses = Obs.Counter.make "divm_index_probe_misses_total"
let m_slice_scanned = Obs.Counter.make "divm_slice_scanned_total"

(* Vectorized executor gauges of what the batching bought: rows merged
   away by key compaction, and probes the generic row-at-a-time path
   would have issued but the key-grouped accessors did not. *)
let m_rows_compacted = Obs.Counter.make "divm_batch_rows_compacted_total"
let m_probes_saved = Obs.Counter.make "divm_probes_saved_total"

(* Selection-vector kernels: rows examined by columnar filter passes and
   rows that survived them (the survivor-vector length after the last
   pass). Scanned counts every pass — a member with two hoisted filters
   charges the dense pass over the range plus the refine pass over the
   first pass's survivors. *)
let m_selvec_scanned = Obs.Counter.make "divm_selvec_rows_scanned_total"
let m_selvec_selected = Obs.Counter.make "divm_selvec_rows_selected_total"

type env = Value.t array
type code = env -> (float -> unit) -> unit

(* One entry of a trigger's batch-mode executor list: a generic compiled
   statement or a vectorized (possibly fused) statement group, in original
   statement order. The lazy colbatch is the raw batch transposed at most
   once per trigger firing, shared by every batch-sourced group. *)
type exec_unit = {
  eu_label : string;
  eu_slot : int; (* profiler slot *)
  eu_run : Colbatch.t Lazy.t -> unit;
  (* domain-parallel executor for the same unit, bound only for vectorized
     groups when the runtime was created with [domains > 1]; generic
     statements serialize (see [par_routes]) *)
  eu_par : (Colbatch.t Lazy.t -> unit) option;
}

type trigger_exec = {
  tx_load : bool; (* any generic statement still reads the batch pool *)
  tx_units : exec_unit list;
}

type t = {
  prog : Prog.t;
  pools : (string, Pool.t) Hashtbl.t;
  batch_pools : (string, Pool.t) Hashtbl.t; (* per-stream, refilled per batch *)
  mutable cur_tuple : Vtuple.t;
  mutable cur_mult : float;
  ops : Obs.Counter.t; (* per-instance elementary record operations *)
  domains : int;
  par : Par.Pool.t option; (* shared domain pool when [domains > 1] *)
  par_min_rows : int; (* batches below this stay on the serial path *)
  mutable triggers_batch : (string * trigger_exec) list;
  mutable triggers_single : (string * (int * (unit -> unit)) list) list;
}

type batch_report = { ops : int; tuples : int; wall : float }

(* ------------------------------------------------------------------ *)
(* Variable layouts                                                    *)
(* ------------------------------------------------------------------ *)

type layout = { slots : (string, int) Hashtbl.t; mutable width : int }

let layout_of_stmt (s : Prog.stmt) =
  let l = { slots = Hashtbl.create 16; width = 0 } in
  let bind (v : Schema.var) =
    if not (Hashtbl.mem l.slots v.name) then begin
      Hashtbl.replace l.slots v.name l.width;
      l.width <- l.width + 1
    end
  in
  List.iter bind s.target_vars;
  List.iter bind (Calc.all_vars s.rhs);
  l

let slot l (v : Schema.var) =
  match Hashtbl.find_opt l.slots v.name with
  | Some i -> i
  | None -> invalid_arg ("Runtime: variable without slot: " ^ v.name)

let slots_of l vars = Array.of_list (List.map (slot l) vars)

(* ------------------------------------------------------------------ *)
(* Value expression compilation                                        *)
(* ------------------------------------------------------------------ *)

let rec compile_vexpr l (v : Vexpr.t) : env -> Value.t =
  match v with
  | Vexpr.Const c -> fun _ -> c
  | Vexpr.Var x ->
      let s = slot l x in
      fun env -> env.(s)
  | Vexpr.Add (a, b) -> bin l Value.add a b
  | Vexpr.Sub (a, b) -> bin l Value.sub a b
  | Vexpr.Mul (a, b) -> bin l Value.mul a b
  | Vexpr.Div (a, b) -> bin l Value.div a b
  | Vexpr.Neg a ->
      let ca = compile_vexpr l a in
      fun env -> Value.neg (ca env)
  | Vexpr.Floor a ->
      let ca = compile_vexpr l a in
      fun env ->
        Value.Int (int_of_float (Float.floor (Value.to_float (ca env))))
  | Vexpr.Min (a, b) ->
      let ca = compile_vexpr l a and cb = compile_vexpr l b in
      fun env ->
        let x = ca env and y = cb env in
        if Value.compare x y <= 0 then x else y
  | Vexpr.Max (a, b) ->
      let ca = compile_vexpr l a and cb = compile_vexpr l b in
      fun env ->
        let x = ca env and y = cb env in
        if Value.compare x y >= 0 then x else y

and bin l op a b =
  let ca = compile_vexpr l a and cb = compile_vexpr l b in
  fun env -> op (ca env) (cb env)

(* ------------------------------------------------------------------ *)
(* Atom compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* Static classification of an atom's key positions: bound positions are
   checked, first occurrences of unbound variables are written, later
   duplicate occurrences are checked against the written slot. *)
let classify ~bound l vars =
  let seen = ref [] in
  List.mapi
    (fun i v ->
      let b = Schema.mem v bound || Schema.mem v !seen in
      seen := Schema.union !seen [ v ];
      (i, slot l v, b))
    vars

let compile_pool_atom (rt : t) ~pool ~bound l vars : code =
  let ops = rt.ops in
  let cls = classify ~bound l vars in
  let n = List.length vars in
  let bound_cls = List.filter (fun (_, _, b) -> b) cls in
  let free_cls = List.filter (fun (_, _, b) -> not b) cls in
  if List.length bound_cls = n then begin
    (* full key lookup: probe with a reusable scratch key (the pool only
       copies keys it must retain, and [get] retains nothing) *)
    let key_slots = Array.of_list (List.map (fun (_, s, _) -> s) cls) in
    let kw = Array.length key_slots in
    let scratch = Array.make kw (Value.Int 0) in
    fun env k ->
      Obs.Counter.incr ops;
      for j = 0 to kw - 1 do
        Array.unsafe_set scratch j env.(Array.unsafe_get key_slots j)
      done;
      let m = Pool.get pool scratch in
      if m <> 0. then k m
  end
  else begin
    let writes = Array.of_list (List.map (fun (i, s, _) -> (i, s)) free_cls) in
    let checks = Array.of_list (List.map (fun (i, s, _) -> (i, s)) bound_cls) in
    (* duplicate occurrences of a variable are classified as bound by
       [classify], so every entry of [writes] is a distinct variable's
       first occurrence: write it, nothing to re-verify *)
    let visit env k (key : Vtuple.t) m =
      Obs.Counter.incr ops;
      let ok = ref true in
      Array.iter
        (fun (i, s) -> if not (Value.equal key.(i) env.(s)) then ok := false)
        checks;
      if !ok then begin
        Array.iter (fun (i, s) -> env.(s) <- key.(i)) writes;
        k m
      end
    in
    if bound_cls = [] then fun env k -> Pool.foreach pool (visit env k)
    else
      let bpos = Array.of_list (List.map (fun (i, _, _) -> i) bound_cls) in
      let bslots = Array.of_list (List.map (fun (_, s, _) -> s) bound_cls) in
      (* the slice index is resolved once per compiled statement, not per
         visited tuple: pools and their declared indexes are fixed at
         program-load time *)
      match Pool.find_slice pool bpos with
      | Some index ->
          let bw = Array.length bslots in
          let sub = Array.make bw (Value.Int 0) in
          fun env k ->
            for j = 0 to bw - 1 do
              Array.unsafe_set sub j env.(Array.unsafe_get bslots j)
            done;
            Pool.slice pool ~index sub (visit env k)
      | None ->
          (* no declared index: scan with checks (correct, slower) *)
          fun env k -> Pool.foreach pool (visit env k)
  end

(* Single-tuple delta atom: binds the current tuple's fields directly. *)
let compile_single_delta (rt : t) ~bound l vars : code =
  let ops = rt.ops in
  let cls = classify ~bound l vars in
  let writes =
    Array.of_list
      (List.filter_map (fun (i, s, b) -> if b then None else Some (i, s)) cls)
  in
  let checks =
    Array.of_list
      (List.filter_map (fun (i, s, b) -> if b then Some (i, s) else None) cls)
  in
  fun env k ->
    Obs.Counter.incr ops;
    let key = rt.cur_tuple in
    let ok = ref true in
    Array.iter
      (fun (i, s) -> if not (Value.equal key.(i) env.(s)) then ok := false)
      checks;
    if !ok then begin
      (* [writes] holds only first occurrences (see [classify]) *)
      Array.iter (fun (i, s) -> env.(s) <- key.(i)) writes;
      k rt.cur_mult
    end

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let pool rt name =
  match Hashtbl.find_opt rt.pools name with
  | Some p -> p
  | None -> invalid_arg ("Runtime: unknown map " ^ name)

type mode = Batch | Single

let rec compile_expr (rt : t) ~mode ~bound l (e : expr) : code =
  let ops = rt.ops in
  match e with
  | Const c -> fun _ k -> k c
  | Value v ->
      let cv = compile_vexpr l v in
      fun env k ->
        Obs.Counter.incr ops;
        let x = Value.to_float (cv env) in
        if x <> 0. then k x
  | Cmp (op, a, b) ->
      let ca = compile_vexpr l a and cb = compile_vexpr l b in
      fun env k ->
        Obs.Counter.incr ops;
        if Calc.eval_cmp op (ca env) (cb env) then k 1.
  | Rel r ->
      invalid_arg ("Runtime: raw base relation in statement: " ^ r.rname)
  | Map m ->
      let p = pool rt m.mname in
      compile_pool_atom rt ~pool:p ~bound l m.mvars
  | DeltaRel r -> (
      match mode with
      | Single -> compile_single_delta rt ~bound l r.rvars
      | Batch ->
          let p =
            match Hashtbl.find_opt rt.batch_pools r.rname with
            | Some p -> p
            | None -> invalid_arg ("Runtime: no batch pool for " ^ r.rname)
          in
          compile_pool_atom rt ~pool:p ~bound l r.rvars)
  | Prod es ->
      let rec go bound = function
        | [] -> fun _ k -> k 1.
        | [ e ] -> compile_expr rt ~mode ~bound l e
        | e :: rest ->
            let ce = compile_expr rt ~mode ~bound l e in
            let bound' =
              match Calc.schema ~bound e with
              | s -> Schema.union bound s
              | exception Type_error _ -> bound
            in
            let crest = go bound' rest in
            fun env k -> ce env (fun m1 -> crest env (fun m2 -> k (m1 *. m2)))
      in
      go bound es
  | Add es ->
      let cs = List.map (compile_expr rt ~mode ~bound l) es in
      fun env k -> List.iter (fun c -> c env k) cs
  | Sum (gb, q) ->
      let out = List.filter (fun v -> not (Schema.mem v bound)) gb in
      let cq = compile_expr rt ~mode ~bound l q in
      let out_slots = slots_of l out in
      if out = [] then (fun env k ->
        let total = ref 0. in
        cq env (fun m -> total := !total +. m);
        if Float.abs !total >= Gmr.zero_eps then k !total)
      else begin
        (* temp group and scratch key allocated once per compiled closure:
           invocations of one closure never overlap, so [clear]-and-reuse
           replaces a fresh table per evaluation, and [add_borrow] copies
           the scratch key only on first insert of a group *)
        let ow = Array.length out_slots in
        let scratch = Array.make ow (Value.Int 0) in
        let temp = Gmr.create () in
        fun env k ->
          Gmr.clear temp;
          cq env (fun m ->
              for j = 0 to ow - 1 do
                Array.unsafe_set scratch j env.(Array.unsafe_get out_slots j)
              done;
              Gmr.add_borrow temp scratch m);
          Gmr.iter
            (fun key m ->
              Obs.Counter.incr ops;
              Array.iteri (fun j s -> env.(s) <- key.(j)) out_slots;
              k m)
            temp
      end
  | Exists q ->
      let qsch = Calc.schema ~bound q in
      let cq = compile_expr rt ~mode ~bound l q in
      if qsch = [] then (fun env k ->
        let total = ref 0. in
        cq env (fun m -> total := !total +. m);
        if Float.abs !total >= Gmr.zero_eps then k 1.)
      else begin
        let q_slots = slots_of l qsch in
        let qw = Array.length q_slots in
        let scratch = Array.make qw (Value.Int 0) in
        let temp = Gmr.create () in
        fun env k ->
          Gmr.clear temp;
          cq env (fun m ->
              for j = 0 to qw - 1 do
                Array.unsafe_set scratch j env.(Array.unsafe_get q_slots j)
              done;
              Gmr.add_borrow temp scratch m);
          Gmr.iter
            (fun key _m ->
              Obs.Counter.incr ops;
              Array.iteri (fun j s -> env.(s) <- key.(j)) q_slots;
              k 1.)
            temp
      end
  | Lift (v, q) ->
      let qsch = Calc.schema ~bound q in
      let cq = compile_expr rt ~mode ~bound l q in
      let v_bound = Schema.mem v bound in
      let v_slot = slot l v in
      if qsch = [] then
        fun env k ->
          let total = ref 0. in
          cq env (fun m -> total := !total +. m);
          Obs.Counter.incr ops;
          if v_bound then begin
            if Value.compare_approx env.(v_slot) (Value.Float !total) = 0 then k 1.
          end
          else begin
            env.(v_slot) <- Value.Float !total;
            k 1.
          end
      else begin
        let q_slots = slots_of l qsch in
        let qw = Array.length q_slots in
        let scratch = Array.make qw (Value.Int 0) in
        let temp = Gmr.create () in
        fun env k ->
          Gmr.clear temp;
          cq env (fun m ->
              for j = 0 to qw - 1 do
                Array.unsafe_set scratch j env.(Array.unsafe_get q_slots j)
              done;
              Gmr.add_borrow temp scratch m);
          Gmr.iter
            (fun key m ->
              Obs.Counter.incr ops;
              Array.iteri (fun j s -> env.(s) <- key.(j)) q_slots;
              if v_bound then begin
                if Value.compare_approx env.(v_slot) (Value.Float m) = 0 then k 1.
              end
              else begin
                env.(v_slot) <- Value.Float m;
                k 1.
              end)
            temp
      end

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let compile_stmt rt ~mode (s : Prog.stmt) : unit -> unit =
  let l = layout_of_stmt s in
  let tv_slots = slots_of l s.target_vars in
  (* Exploit a top-level Sum over exactly the target variables: accumulate
     straight into the pool with no intermediate grouping. *)
  let body =
    match s.rhs with
    | Sum (gb, body) when Schema.equal_as_sets gb s.target_vars -> body
    | rhs -> rhs
  in
  let code = compile_expr rt ~mode ~bound:[] l body in
  let target = pool rt s.target in
  (* If the RHS reads the target map, adding into the pool while evaluating
     would expose mid-statement writes (and mutate a pool being scanned) —
     buffer the result and apply afterwards. *)
  let self_reading = List.mem s.target (Calc.map_refs s.rhs) in
  (* Per-statement scratch target key; the sinks copy it on first insert
     ([add_borrow]), so the buffer is safe to refill on the next tuple. *)
  let tw = Array.length tv_slots in
  let scratch = Array.make tw (Value.Int 0) in
  let fill env =
    for j = 0 to tw - 1 do
      Array.unsafe_set scratch j env.(Array.unsafe_get tv_slots j)
    done
  in
  let direct () =
    let env = Array.make l.width (Value.Int 0) in
    code env (fun m ->
        fill env;
        Pool.add_borrow target scratch m)
  in
  (* Reused across firings: trigger executions never overlap, and [clear]
     only drops references — keys handed to the pool stay intact. *)
  let buf = Gmr.create () in
  let buffered () =
    let env = Array.make l.width (Value.Int 0) in
    Gmr.clear buf;
    code env (fun m ->
        fill env;
        Gmr.add_borrow buf scratch m);
    buf
  in
  match (s.op, self_reading) with
  | Prog.Add_to, false -> direct
  | Prog.Add_to, true ->
      fun () ->
        let buf = buffered () in
        Gmr.iter (fun key m -> Pool.add target key m) buf
  | Prog.Assign, false ->
      fun () ->
        Pool.clear target;
        direct ()
  | Prog.Assign, true ->
      fun () ->
        let buf = buffered () in
        Pool.clear target;
        Gmr.iter (fun key m -> Pool.add target key m) buf

(* ------------------------------------------------------------------ *)
(* Vectorized batched joins (§5.2): static planning                    *)
(* ------------------------------------------------------------------ *)

(* A trigger statement qualifies for the vectorized executor when it is a
   single product driven by one batch-derived source factor — the raw
   update batch or a transient pre-aggregation assigned earlier in the
   same trigger, optionally Exists-wrapped — joined against store maps
   that are fully keyed by source columns (get probes, resolved once per
   distinct key group), at most one partially keyed map (a slice probe),
   lifts of fully keyed probes, and comparisons / value terms over the
   bound columns. The source is compacted to the group's used columns
   (duplicate keys coalesce) and sort-grouped by the probe key columns,
   so every accessor resolves once per distinct key instead of once per
   batch row — O(K) probes for a batch with K distinct keys (§5.2). *)

type vsource = {
  vs_name : string; (* delta stream or transient map *)
  vs_batch : bool; (* raw update batch vs transient pool *)
  vs_exists : bool; (* Exists-wrapped: row weight is support, not mult *)
  vs_vars : Schema.t;
}

(* a store-map probe fully keyed by source columns; [vb_cols] are source
   column positions in map-key order *)
type vprobe = { vb_map : string; vb_cols : int list }

type vslice = {
  sl_map : string;
  sl_bcols : int array; (* source columns of the bound part, in index order *)
  sl_bpos : int array; (* map-key positions that are bound *)
  sl_outs : Schema.t; (* unbound map-key variables, bound per slice row *)
  sl_opos : int array; (* their map-key positions *)
}

(* where a statement variable lives: a source column, or an auxiliary
   slot written by a lift or a slice output *)
type vref = VSrc of int | VAux of string

type vstep =
  | VGet of int (* multiply by probe value, skip the row on 0 *)
  | VExists of int (* skip the row unless the probe has support *)
  | VLift of string * int list (* aux var := sum of probe values *)
  | VFilter of Calc.cmp_op * Vexpr.t * Vexpr.t
  | VFilterIn of (Calc.cmp_op * Vexpr.t * Vexpr.t) list
      (* a sum of comparisons (IN-list / membership disjunction): the
         factor's value is the number of matching disjuncts *)
  | VWeight of Vexpr.t
  | VSlice of vslice

type vplan = {
  vp_stmt : Prog.stmt;
  vp_sign : float; (* product of constant factors *)
  vp_source : vsource;
  vp_probes : vprobe list; (* accessor table; VGet/VExists/VLift indices *)
  vp_steps : vstep list; (* factor order; at most one VSlice *)
  vp_tkey : vref list; (* target key, one ref per target variable *)
  vp_used : int list; (* source columns read anywhere, sorted *)
  vp_keycols : int list; (* source columns feeding probes/slice binds *)
  vp_reads : string list; (* store maps probed or sliced *)
}

exception Not_vectorizable

let plan_stmt_exn ~rel ~transient_ready (s : Prog.stmt) : vplan =
  (* self-reading statements need buffered evaluation: generic path *)
  if List.mem s.target (Calc.map_refs s.rhs) then raise Not_vectorizable;
  let body =
    match s.rhs with
    | Sum (gb, body) ->
        (* only the accumulate-into-the-pool fast path of [compile_stmt] *)
        if Schema.equal_as_sets gb s.target_vars then body
        else raise Not_vectorizable
    | rhs -> rhs
  in
  let distinct (vars : Schema.t) =
    let names = List.map (fun (v : Schema.var) -> v.name) vars in
    List.length names = List.length (List.sort_uniq compare names)
  in
  let sign = ref 1. in
  let rec skim = function
    | Const c :: tl ->
        sign := !sign *. c;
        skim tl
    | l -> l
  in
  let src, rest =
    let source_of = function
      | DeltaRel r when String.equal r.rname rel && r.rvars <> [] ->
          Some (r.rname, true, r.rvars)
      | Map m when transient_ready m.mname && m.mvars <> [] ->
          Some (m.mname, false, m.mvars)
      | _ -> None
    in
    match skim (Divm_delta.Poly.factors body) with
    | f :: tl -> (
        let wrapped, atom = match f with Exists q -> (true, q) | q -> (false, q) in
        match source_of atom with
        | Some (name, batch, vars) when distinct vars ->
            ( { vs_name = name; vs_batch = batch; vs_exists = wrapped; vs_vars = vars },
              tl )
        | _ -> raise Not_vectorizable)
    | [] -> raise Not_vectorizable
  in
  let pos_of (v : Schema.var) =
    let rec go i = function
      | [] -> None
      | (x : Schema.var) :: tl ->
          if String.equal x.name v.name then Some i else go (i + 1) tl
    in
    go 0 src.vs_vars
  in
  let aux = ref [] in (* names bound by lifts and slice outputs, in order *)
  let used = ref [] and keyc = ref [] and reads = ref [] in
  let use p = if not (List.mem p !used) then used := p :: !used in
  let usek p =
    use p;
    if not (List.mem p !keyc) then keyc := p :: !keyc
  in
  (* a variable read by a filter / weight / target key must already be
     bound — by a source column or by an earlier lift or slice output *)
  let vref (v : Schema.var) =
    match pos_of v with
    | Some p ->
        use p;
        VSrc p
    | None ->
        if List.mem v.name !aux then VAux v.name else raise Not_vectorizable
  in
  let check_vexpr ve = List.iter (fun v -> ignore (vref v)) (Vexpr.vars ve) in
  let probes = ref [] in
  let probe_id map cols =
    let rec find i = function
      | [] ->
          probes := !probes @ [ { vb_map = map; vb_cols = cols } ];
          i
      | p :: tl ->
          if String.equal p.vb_map map && p.vb_cols = cols then i
          else find (i + 1) tl
    in
    find 0 !probes
  in
  (* probe keys must be source columns: that is what makes the accessor
     constant over a sort group and therefore shareable *)
  let get_cols (vars : Schema.t) =
    List.map
      (fun v ->
        match pos_of v with
        | Some p ->
            usek p;
            p
        | None -> raise Not_vectorizable)
      vars
  in
  let fully_src (vars : Schema.t) = List.for_all (fun v -> pos_of v <> None) vars in
  let slice_seen = ref false in
  let steps =
    List.filter_map
      (fun f ->
        match f with
        | Const c ->
            sign := !sign *. c;
            None
        | Cmp (op, a, b) ->
            check_vexpr a;
            check_vexpr b;
            Some (VFilter (op, a, b))
        | Value ve ->
            check_vexpr ve;
            Some (VWeight ve)
        | Exists (Map m) when fully_src m.mvars ->
            reads := m.mname :: !reads;
            Some (VExists (probe_id m.mname (get_cols m.mvars)))
        | Map m when fully_src m.mvars ->
            reads := m.mname :: !reads;
            Some (VGet (probe_id m.mname (get_cols m.mvars)))
        | Lift (v, q) when pos_of v = None && not (List.mem v.name !aux) ->
            let term = function
              | Map m when fully_src m.mvars ->
                  reads := m.mname :: !reads;
                  probe_id m.mname (get_cols m.mvars)
              | _ -> raise Not_vectorizable
            in
            let ids =
              match q with
              | Map _ -> [ term q ]
              | Add qs -> List.map term qs
              | _ -> raise Not_vectorizable
            in
            aux := v.name :: !aux;
            Some (VLift (v.name, ids))
        | Map m ->
            (* partially keyed: the single slice probe *)
            if !slice_seen then raise Not_vectorizable;
            slice_seen := true;
            reads := m.mname :: !reads;
            let indexed = List.mapi (fun i v -> (i, v)) m.mvars in
            let bound, free =
              List.partition (fun (_, v) -> pos_of v <> None) indexed
            in
            let free_vars = List.map snd free in
            if free = [] || not (distinct free_vars) then
              raise Not_vectorizable;
            List.iter
              (fun (v : Schema.var) ->
                if List.mem v.name !aux then raise Not_vectorizable)
              free_vars;
            let bcol (_, v) =
              match pos_of v with
              | Some p ->
                  usek p;
                  p
              | None -> assert false
            in
            let sl =
              {
                sl_map = m.mname;
                sl_bcols = Array.of_list (List.map bcol bound);
                sl_bpos = Array.of_list (List.map fst bound);
                sl_outs = free_vars;
                sl_opos = Array.of_list (List.map fst free);
              }
            in
            aux := List.map (fun (v : Schema.var) -> v.name) free_vars @ !aux;
            Some (VSlice sl)
        | Add es
          when es <> []
               && List.for_all (function Cmp _ -> true | _ -> false) es ->
            (* membership test (e.g. [in_set]): a sum of comparison
               indicators — evaluates to the number of matching disjuncts *)
            Some
              (VFilterIn
                 (List.map
                    (function
                      | Cmp (op, a, b) ->
                          check_vexpr a;
                          check_vexpr b;
                          (op, a, b)
                      | _ -> assert false)
                    es))
        | _ -> raise Not_vectorizable)
      rest
  in
  let tkey = List.map vref s.target_vars in
  {
    vp_stmt = s;
    vp_sign = !sign;
    vp_source = src;
    vp_probes = !probes;
    vp_steps = steps;
    vp_tkey = tkey;
    vp_used = List.sort compare !used;
    vp_keycols = List.sort compare !keyc;
    vp_reads = !reads;
  }

(* One entry of a trigger's planned executor: a statement on the generic
   closure path, or a group of ≥1 consecutive vectorized statements
   sharing a source (and, when fused, one pass over the grouped batch). *)
type unit_plan = UStmt of Prog.stmt | UGroup of vplan list

(* Fusing [p] into [group] is sound when they share the source and no
   member's writes can be observed by another member's reads before the
   group completes: generic execution finishes statement i before
   statement j starts, the fused pass interleaves them per row. *)
let fuse_ok group (p : vplan) =
  match group with
  | [] -> false
  | g0 :: _ ->
      String.equal g0.vp_source.vs_name p.vp_source.vs_name
      && g0.vp_source.vs_batch = p.vp_source.vs_batch
      && (not (String.equal p.vp_stmt.target p.vp_source.vs_name))
      && List.for_all
           (fun (q : vplan) ->
             (not (List.mem p.vp_stmt.target q.vp_reads))
             && (not (List.mem q.vp_stmt.target p.vp_reads))
             && (not (String.equal q.vp_stmt.target p.vp_source.vs_name))
             && ((not (String.equal q.vp_stmt.target p.vp_stmt.target))
                || (q.vp_stmt.op = Prog.Add_to && p.vp_stmt.op = Prog.Add_to)))
           group

let plan_trigger (prog : Prog.t) (tr : Prog.trigger) : unit_plan list =
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun (m : Prog.map_decl) -> Hashtbl.replace kinds m.mname m.mkind)
    prog.maps;
  (* a transient qualifies as a source once its Assign has executed *)
  let assigned = Hashtbl.create 8 in
  let plans =
    List.map
      (fun (s : Prog.stmt) ->
        let transient_ready n =
          Hashtbl.find_opt kinds n = Some Prog.Transient && Hashtbl.mem assigned n
        in
        let p =
          match plan_stmt_exn ~rel:tr.relation ~transient_ready s with
          | p -> Some p
          | exception Not_vectorizable -> None
        in
        if
          s.op = Prog.Assign
          && Hashtbl.find_opt kinds s.target = Some Prog.Transient
        then Hashtbl.replace assigned s.target ();
        (s, p))
      tr.stmts
  in
  let finish group acc =
    match group with [] -> acc | g -> UGroup (List.rev g) :: acc
  in
  let rec go acc group = function
    | [] -> List.rev (finish group acc)
    | (s, None) :: tl -> go (UStmt s :: finish group acc) [] tl
    | (_, Some p) :: tl ->
        if group <> [] && fuse_ok group p then go acc (p :: group) tl
        else go (finish group acc) [ p ] tl
  in
  let units = go [] [] plans in
  (* a lone transient-sourced statement with no probes is a pure copy /
     filter pass: transposing the pool buys nothing, keep it generic *)
  List.map
    (function
      | UGroup [ p ] when (not p.vp_source.vs_batch) && p.vp_reads = [] ->
          UStmt p.vp_stmt
      | u -> u)
    units

(* ------------------------------------------------------------------ *)
(* Selection-vector kernels: static classification                     *)
(* ------------------------------------------------------------------ *)

(* A side of a comparison the kernel compiler can hoist out of the
   per-row chain: a numeric constant (as its float image), a numeric
   source column, a string constant, or a string source column.
   Anything else — aux variables bound by lifts or slice outputs,
   arithmetic over columns, mixed string/numeric typing — keeps the
   filter on the per-row path ("genuinely dynamic"). *)
type kside =
  | KNum of float
  | KCol of int (* source column position, numeric-typed *)
  | KStr of string
  | KSCol of int (* source column position, string-typed *)

(* [Value.compare_approx] is antisymmetric on both of its branches
   (numeric tolerance compare and polymorphic string compare), so a
   comparison may be flipped to put the column on the left. *)
let mirror_op : Calc.cmp_op -> Calc.cmp_op = function
  | Calc.Lt -> Calc.Gt
  | Calc.Lte -> Calc.Gte
  | Calc.Gt -> Calc.Lt
  | Calc.Gte -> Calc.Lte
  | (Calc.Eq | Calc.Neq) as op -> op

let classify_side (p : vplan) (ve : Vexpr.t) : kside option =
  match ve with
  | Vexpr.Const (Value.Int i) -> Some (KNum (float_of_int i))
  | Vexpr.Const (Value.Float f) -> Some (KNum f)
  | Vexpr.Const (Value.Date d) -> Some (KNum (float_of_int d))
  | Vexpr.Const (Value.String s) -> Some (KStr s)
  | Vexpr.Var x -> (
      let rec go i = function
        | [] -> None
        | (v : Schema.var) :: tl ->
            if String.equal v.name x.name then Some i else go (i + 1) tl
      in
      match go 0 p.vp_source.vs_vars with
      | None -> None (* aux variable: bound per row, not hoistable *)
      | Some c ->
          if x.ty = Value.TString then Some (KSCol c) else Some (KCol c))
  | _ -> None

(* [classify_filter] is the single authority on hoistability: the
   EXPLAIN labels ([route_label_of_group], [stmt_routes_ex]) and the
   kernel binder ([bind_instance]) both consume it, so the plan a user
   reads and the code that runs can never disagree. Comparisons are
   canonicalized column-first via [mirror_op]. String/numeric mixes are
   rejected (their semantics live in [Value.compare_approx]'s
   polymorphic branch; the per-row path handles them as before). *)
let classify_filter (p : vplan) ((op, a, b) : Calc.cmp_op * Vexpr.t * Vexpr.t)
    : (Calc.cmp_op * kside * kside) option =
  match (classify_side p a, classify_side p b) with
  | Some (KCol _ as l), Some ((KNum _ | KCol _) as r)
  | Some (KSCol _ as l), Some ((KStr _ | KSCol _) as r) -> Some (op, l, r)
  | Some (KNum _ as r), Some (KCol _ as l)
  | Some (KStr _ as r), Some (KSCol _ as l) -> Some (mirror_op op, l, r)
  | _ -> None

(* Per-plan filter split: (filters hoisted to selection-vector kernels,
   filters remaining on the per-row path). A hoistable membership test
   ([VFilterIn]) counts as a kernel: its any-disjunct-matches gate runs
   columnar even though the match-count multiply stays in the chain. *)
let plan_filter_split (p : vplan) =
  List.fold_left
    (fun (sv, rw) st ->
      match st with
      | VFilter (op, a, b) ->
          if classify_filter p (op, a, b) <> None then (sv + 1, rw)
          else (sv, rw + 1)
      | VFilterIn cs ->
          if List.for_all (fun c -> classify_filter p c <> None) cs then
            (sv + 1, rw)
          else (sv, rw + 1)
      | _ -> (sv, rw))
    (0, 0) p.vp_steps

let route_label_of_group (ps : vplan list) =
  let sv =
    List.fold_left (fun acc p -> acc + fst (plan_filter_split p)) 0 ps
  in
  match ps with
  | [ p ] ->
      (if sv > 0 then if p.vp_reads = [] then "selvec:" else "selvec-join:"
       else if p.vp_reads = [] then "columnar:"
       else "columnar-join:")
      ^ p.vp_stmt.target
  | ps ->
      let targets =
        List.fold_left
          (fun acc (p : vplan) ->
            if List.mem p.vp_stmt.target acc then acc
            else acc @ [ p.vp_stmt.target ])
          [] ps
      in
      (if sv > 0 then "fused-selvec:" else "fused:")
      ^ String.concat "+" targets

(* ------------------------------------------------------------------ *)
(* Vectorized batched joins: binding and execution                     *)
(* ------------------------------------------------------------------ *)

(* Per-group mutable view of the compacted source batch; every bound
   closure reads the current row through this record, so one binding
   serves every batch. *)
type vctx = {
  mutable vc_cols : Colbatch.col array; (* group column layout, typed *)
  mutable vc_mults : float array;
  mutable vc_counts : float array; (* source rows merged per compacted row *)
  mutable vc_row : int;
}

(* A get-style accessor shared by the whole group: resolved once per
   distinct key group, read by every member referencing it. *)
type gacc = {
  ga_pool : Pool.t;
  ga_key : int array; (* compacted column positions, in map-key order *)
  ga_scratch : Vtuple.t;
  mutable ga_val : float;
  mutable ga_uses : int; (* member references, for the probes-saved model *)
}

(* A shared slice accessor: the matching store rows are cached once per
   key group. The cached key arrays are borrowed from the pool — sound
   because fusion safety guarantees no member writes a probed pool while
   the group runs. *)
type gslice = {
  gs_pool : Pool.t;
  gs_index : int option; (* declared slice index; None scans with checks *)
  gs_bcols : int array; (* compacted columns of the bound part *)
  gs_bpos : int array;
  gs_sub : Vtuple.t;
  mutable gs_keys : Vtuple.t array;
  mutable gs_ms : float array;
  mutable gs_n : int;
  mutable gs_uses : int;
}

(* The static shape of a group: which source columns the compacted batch
   keeps and how they are ordered. Shared by every execution instance of
   the group (the serial driver binds one, the parallel driver one per
   domain). *)
type gshape = {
  sh_src : vsource;
  sh_width : int; (* source width *)
  sh_sk : int array; (* grouping-key columns *)
  sh_rest : int array;
  sh_sel : int array;
  sh_cpos : int array; (* original source column -> compacted column *)
}

let group_shape (ps : vplan list) =
  let src = (List.hd ps).vp_source in
  let src_width = List.length src.vs_vars in
  let addu l p = if not (List.mem p !l) then l := p :: !l in
  let keyc = ref [] and usedc = ref [] in
  List.iter
    (fun p ->
      List.iter (addu keyc) p.vp_keycols;
      List.iter (addu usedc) p.vp_used)
    ps;
  let sk = Array.of_list (List.sort compare !keyc) in
  let rest =
    Array.of_list
      (List.sort compare (List.filter (fun c -> not (List.mem c !keyc)) !usedc))
  in
  let sel = Array.append sk rest in
  let cpos = Array.make src_width (-1) in
  Array.iteri (fun i c -> cpos.(c) <- i) sel;
  {
    sh_src = src;
    sh_width = src_width;
    sh_sk = sk;
    sh_rest = rest;
    sh_sel = sel;
    sh_cpos = cpos;
  }

(* Source columns worth dictionary-encoding for this group, this batch:
   operands of hoistable string filters (the selection kernel then
   tests an int-indexed per-dictionary truth table instead of comparing
   strings) and, when the group compacts, its grouping-key columns (the
   radix path then hashes the dictionary's cached entry hashes instead
   of boxed cells). The drivers pass the list to
   [Colbatch.dictify_cols] once per batch; it skips everything that is
   not a low-cardinality all-string column, so over-asking (e.g. int
   key columns) costs one representation check. *)
let dict_want (ps : vplan list) (shape : gshape) ~keys =
  let acc = ref [] in
  let addc c = if not (List.mem c !acc) then acc := c :: !acc in
  let add_side = function KSCol c -> addc c | _ -> () in
  let add_cmp p cmp =
    match classify_filter p cmp with
    | Some (_, l, r) ->
        add_side l;
        add_side r
    | None -> ()
  in
  List.iter
    (fun p ->
      List.iter
        (function
          | VFilter (op, a, b) -> add_cmp p (op, a, b)
          | VFilterIn cs -> List.iter (add_cmp p) cs
          | _ -> ())
        p.vp_steps)
    ps;
  if keys then Array.iter addc shape.sh_sk;
  !acc

(* ------------------------------------------------------------------ *)
(* Selection-vector kernels: columnar filter evaluation                *)
(* ------------------------------------------------------------------ *)

(* Local replica of [Value.fcompare_approx]: cross-module float calls
   box their arguments without flambda, and this runs once per scanned
   row. Keep in sync with [Value.fcompare_approx] — the selection-vector
   qcheck suite pins the two paths' agreement on NaN/infinity edges. *)
let[@inline] fcmp x y =
  let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
  if Float.abs (x -. y) <= 1e-9 *. scale then 0 else Float.compare x y

let ftest : Calc.cmp_op -> float -> float -> bool = function
  | Calc.Eq -> fun x y -> fcmp x y = 0
  | Calc.Neq -> fun x y -> fcmp x y <> 0
  | Calc.Lt -> fun x y -> fcmp x y < 0
  | Calc.Lte -> fun x y -> fcmp x y <= 0
  | Calc.Gt -> fun x y -> fcmp x y > 0
  | Calc.Gte -> fun x y -> fcmp x y >= 0

(* Packed-survivor loops. The dense pass scans rows [lo, lo+len),
   writing each index unconditionally and advancing the cursor only on a
   pass (no branch around the store); the refine pass re-tests a packed
   vector in place (the write cursor never overtakes the read cursor). *)
let pack dense lo len (sel : int array) (pass : int -> bool) =
  let k = ref 0 in
  if dense then
    for i = lo to lo + len - 1 do
      Array.unsafe_set sel !k i;
      k := !k + Bool.to_int (pass i)
    done
  else
    for j = 0 to len - 1 do
      let i = Array.unsafe_get sel j in
      Array.unsafe_set sel !k i;
      k := !k + Bool.to_int (pass i)
    done;
  !k

(* A built kernel: the dense pass scans a row range into [sel], the
   refine pass re-tests a packed vector in place. Built once per batch
   from the current columns ([prep_inst]); the hot loops below are the
   only code that runs per group. *)
type kern = {
  kdense : int -> int -> int array -> int; (* lo len sel -> survivors *)
  krefine : int -> int array -> int; (* n sel -> survivors *)
}

let kern_of_pass (pass : int -> bool) =
  {
    kdense = (fun lo len sel -> pack true lo len sel pass);
    krefine = (fun n sel -> pack false 0 n sel pass);
  }

(* Comparator encoded as a 3-bit mask over the comparison's sign
   (bit 0: <, bit 1: =, bit 2: >), so one loop body serves all six
   operators with no per-row indirect call. *)
let sign_mask = function
  | Calc.Eq -> 0b010
  | Calc.Neq -> 0b101
  | Calc.Lt -> 0b001
  | Calc.Lte -> 0b011
  | Calc.Gt -> 0b100
  | Calc.Gte -> 0b110

(* Fully-specialized loops for the hottest kernel shape — an unboxed
   numeric column against a constant: direct array load, direct [fcmp]
   call, mask test, branchless store. *)
let kern_float_const (a : float array) op (v : float) =
  let mask = sign_mask op in
  {
    kdense =
      (fun lo len sel ->
        let k = ref 0 in
        for i = lo to lo + len - 1 do
          Array.unsafe_set sel !k i;
          let c = fcmp (Array.unsafe_get a i) v in
          let s = Bool.to_int (c >= 0) + Bool.to_int (c > 0) in
          k := !k + ((mask lsr s) land 1)
        done;
        !k);
    krefine =
      (fun n sel ->
        let k = ref 0 in
        for j = 0 to n - 1 do
          let i = Array.unsafe_get sel j in
          Array.unsafe_set sel !k i;
          let c = fcmp (Array.unsafe_get a i) v in
          let s = Bool.to_int (c >= 0) + Bool.to_int (c > 0) in
          k := !k + ((mask lsr s) land 1)
        done;
        !k);
  }

let kern_int_const (a : int array) op (v : float) =
  let mask = sign_mask op in
  {
    kdense =
      (fun lo len sel ->
        let k = ref 0 in
        for i = lo to lo + len - 1 do
          Array.unsafe_set sel !k i;
          let c = fcmp (float_of_int (Array.unsafe_get a i)) v in
          let s = Bool.to_int (c >= 0) + Bool.to_int (c > 0) in
          k := !k + ((mask lsr s) land 1)
        done;
        !k);
    krefine =
      (fun n sel ->
        let k = ref 0 in
        for j = 0 to n - 1 do
          let i = Array.unsafe_get sel j in
          Array.unsafe_set sel !k i;
          let c = fcmp (float_of_int (Array.unsafe_get a i)) v in
          let s = Bool.to_int (c >= 0) + Bool.to_int (c > 0) in
          k := !k + ((mask lsr s) land 1)
        done;
        !k);
  }

(* Band kernels: two constant comparisons against the same column fused
   into one pass — one load serves both tests (ranges like
   [lo <= x < hi] are the common shape: date windows, BETWEEN). *)
let kern_float_const2 (a : float array) op1 (v1 : float) op2 (v2 : float) =
  let m1 = sign_mask op1 and m2 = sign_mask op2 in
  {
    kdense =
      (fun lo len sel ->
        let k = ref 0 in
        for i = lo to lo + len - 1 do
          Array.unsafe_set sel !k i;
          let x = Array.unsafe_get a i in
          let c1 = fcmp x v1 in
          let s1 = Bool.to_int (c1 >= 0) + Bool.to_int (c1 > 0) in
          let c2 = fcmp x v2 in
          let s2 = Bool.to_int (c2 >= 0) + Bool.to_int (c2 > 0) in
          k := !k + ((m1 lsr s1) land (m2 lsr s2) land 1)
        done;
        !k);
    krefine =
      (fun n sel ->
        let k = ref 0 in
        for j = 0 to n - 1 do
          let i = Array.unsafe_get sel j in
          Array.unsafe_set sel !k i;
          let x = Array.unsafe_get a i in
          let c1 = fcmp x v1 in
          let s1 = Bool.to_int (c1 >= 0) + Bool.to_int (c1 > 0) in
          let c2 = fcmp x v2 in
          let s2 = Bool.to_int (c2 >= 0) + Bool.to_int (c2 > 0) in
          k := !k + ((m1 lsr s1) land (m2 lsr s2) land 1)
        done;
        !k);
  }

let kern_int_const2 (a : int array) op1 (v1 : float) op2 (v2 : float) =
  let m1 = sign_mask op1 and m2 = sign_mask op2 in
  {
    kdense =
      (fun lo len sel ->
        let k = ref 0 in
        for i = lo to lo + len - 1 do
          Array.unsafe_set sel !k i;
          let x = float_of_int (Array.unsafe_get a i) in
          let c1 = fcmp x v1 in
          let s1 = Bool.to_int (c1 >= 0) + Bool.to_int (c1 > 0) in
          let c2 = fcmp x v2 in
          let s2 = Bool.to_int (c2 >= 0) + Bool.to_int (c2 > 0) in
          k := !k + ((m1 lsr s1) land (m2 lsr s2) land 1)
        done;
        !k);
    krefine =
      (fun n sel ->
        let k = ref 0 in
        for j = 0 to n - 1 do
          let i = Array.unsafe_get sel j in
          Array.unsafe_set sel !k i;
          let x = float_of_int (Array.unsafe_get a i) in
          let c1 = fcmp x v1 in
          let s1 = Bool.to_int (c1 >= 0) + Bool.to_int (c1 > 0) in
          let c2 = fcmp x v2 in
          let s2 = Bool.to_int (c2 >= 0) + Bool.to_int (c2 > 0) in
          k := !k + ((m1 lsr s1) land (m2 lsr s2) land 1)
        done;
        !k);
  }

(* Row predicates specialized on the column's physical representation
   and the comparator: the representation/op dispatch happens once per
   kernel invocation (per batch or per key group), never per row. The
   fallback arm mirrors the per-row path exactly — [float_get] raises on
   string cells just as the rowwise float-compiled filter would. *)
let pass_col_num (col : Colbatch.col) op (v : float) : int -> bool =
  match col with
  | Colbatch.CFloat a -> (
      match op with
      | Calc.Eq -> fun i -> fcmp (Array.unsafe_get a i) v = 0
      | Calc.Neq -> fun i -> fcmp (Array.unsafe_get a i) v <> 0
      | Calc.Lt -> fun i -> fcmp (Array.unsafe_get a i) v < 0
      | Calc.Lte -> fun i -> fcmp (Array.unsafe_get a i) v <= 0
      | Calc.Gt -> fun i -> fcmp (Array.unsafe_get a i) v > 0
      | Calc.Gte -> fun i -> fcmp (Array.unsafe_get a i) v >= 0)
  | Colbatch.CInt a | Colbatch.CDate a -> (
      match op with
      | Calc.Eq -> fun i -> fcmp (float_of_int (Array.unsafe_get a i)) v = 0
      | Calc.Neq -> fun i -> fcmp (float_of_int (Array.unsafe_get a i)) v <> 0
      | Calc.Lt -> fun i -> fcmp (float_of_int (Array.unsafe_get a i)) v < 0
      | Calc.Lte -> fun i -> fcmp (float_of_int (Array.unsafe_get a i)) v <= 0
      | Calc.Gt -> fun i -> fcmp (float_of_int (Array.unsafe_get a i)) v > 0
      | Calc.Gte -> fun i -> fcmp (float_of_int (Array.unsafe_get a i)) v >= 0)
  | col ->
      let t = ftest op in
      fun i -> t (Colbatch.float_get col i) v

let pass_col_col (ca : Colbatch.col) (cb : Colbatch.col) op : int -> bool =
  let t = ftest op in
  match (ca, cb) with
  | Colbatch.CFloat a, Colbatch.CFloat b ->
      fun i -> t (Array.unsafe_get a i) (Array.unsafe_get b i)
  | _ -> fun i -> t (Colbatch.float_get ca i) (Colbatch.float_get cb i)

(* String filter against a constant. With a dictionary-encoded column
   the comparison is precomputed once per distinct entry and each row
   costs one table lookup by code. The table is cached on the
   dictionary's physical identity — [trunc]/[gather] share dictionaries,
   so one table serves every key group of a batch. *)
let pass_col_str (cache : (Colbatch.dict * bool array) option ref)
    (col : Colbatch.col) op (kv : Value.t) : int -> bool =
  match col with
  | Colbatch.CDict (d, codes) ->
      let tbl =
        match !cache with
        | Some (d', t) when d' == d -> t
        | _ ->
            let t =
              Array.init (Colbatch.dict_size d) (fun e ->
                  Calc.eval_cmp op (Value.String (Colbatch.dict_entry d e)) kv)
            in
            cache := Some (d, t);
            t
      in
      fun i -> Array.unsafe_get tbl (Array.unsafe_get codes i)
  | col -> fun i -> Calc.eval_cmp op (Colbatch.get col i) kv


(* One independent execution instance of a group: its own batch cursor,
   accessor caches, auxiliary slots, and scratch — so instances on
   different domains share nothing but the read-only compacted columns
   and the store pools they probe. [buffered] gives each member a private
   [Gmr] output buffer (paired with its merge target) instead of writing
   the target pool directly; the parallel driver merges the buffers
   serially after the barrier. *)
(* One member of an execution instance: its per-row closure plus the
   selection-vector kernels hoisted from its filter chain. [gm_kerns]
   holds pass *builders*: they read [ctx.vc_cols] (assigned once per
   batch) and specialize on the column representation, so the drivers
   rebuild [gm_passes] exactly once per batch ([prep_insts]) and the
   grouped driver pays no per-group dispatch or closure allocation.
   [gm_sel] is the member's packed survivor index vector (grown on
   demand); [gm_cnt] is the survivor count after the last kernel pass,
   or -1 when the member runs dense (no kernels, or the grouped driver
   chose the dense loop for it this group). *)
type gmember = {
  gm_run : unit -> unit;
  gm_kerns : (unit -> kern) array;
      (* kernel builders: called after [vc_cols] is set for the batch *)
  mutable gm_passes : kern array;
      (* built kernels, refreshed once per batch ([prep_inst]) *)
  mutable gm_sel : int array;
  mutable gm_cnt : int;
}

type ginst = {
  gi_ctx : vctx;
  gi_members : gmember array;
  gi_kerned : bool;
      (* any member with kernels? false routes the drivers through the
         row-major loops (identical to the pre-selection-vector path:
         no survivor bookkeeping, no per-member passes) *)
  gi_gaccs : gacc array;
  gi_gslices : gslice array;
  gi_bufs : (Pool.t * Gmr.t) array; (* per member, only when buffered *)
  gi_clears : Pool.t list; (* Assign targets, cleared before any run *)
  gi_boxed : int array;
      (* column slots read as boxed [Value]s by some per-row reader;
         batch prep pre-boxes these (see [box_reads]) *)
}

let bind_instance (rt : t) ~(shape : gshape) ~buffered (ps : vplan list) :
    ginst =
  let cpos = shape.sh_cpos in
  let ctx = { vc_cols = [||]; vc_mults = [||]; vc_counts = [||]; vc_row = 0 } in
  let gaccs = ref [] in
  let gacc_for map cols =
    let ccols = Array.of_list (List.map (fun c -> cpos.(c)) cols) in
    let p = pool rt map in
    match
      List.find_opt (fun a -> a.ga_pool == p && a.ga_key = ccols) !gaccs
    with
    | Some a -> a
    | None ->
        let a =
          {
            ga_pool = p;
            ga_key = ccols;
            ga_scratch = Array.make (Array.length ccols) (Value.Int 0);
            ga_val = 0.;
            ga_uses = 0;
          }
        in
        gaccs := !gaccs @ [ a ];
        a
  in
  let gslices = ref [] in
  let gslice_for (sl : vslice) =
    let bcols = Array.map (fun c -> cpos.(c)) sl.sl_bcols in
    let p = pool rt sl.sl_map in
    match
      List.find_opt
        (fun g -> g.gs_pool == p && g.gs_bcols = bcols && g.gs_bpos = sl.sl_bpos)
        !gslices
    with
    | Some g -> g
    | None ->
        let g =
          {
            gs_pool = p;
            gs_index = Pool.find_slice p sl.sl_bpos;
            gs_bcols = bcols;
            gs_bpos = sl.sl_bpos;
            gs_sub = Array.make (Array.length bcols) (Value.Int 0);
            gs_keys = [||];
            gs_ms = [||];
            gs_n = 0;
            gs_uses = 0;
          }
        in
        gslices := !gslices @ [ g ];
        g
  in
  let ops = rt.ops in
  let bufs = ref [] in
  (* compacted columns some bound reader reads as boxed [Value]s, row by
     row — the batch prep pre-boxes exactly these once per batch so the
     hot loops chase one pointer instead of allocating per read *)
  let boxed_cols : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let bind_member (p : vplan) =
    let accs =
      Array.of_list
        (List.map (fun pr -> gacc_for pr.vb_map pr.vb_cols) p.vp_probes)
    in
    (* auxiliary slots: lift variables and slice outputs *)
    let aux_slots = Hashtbl.create 8 in
    let naux = ref 0 in
    List.iter
      (function
        | VLift (n, _) ->
            Hashtbl.replace aux_slots n !naux;
            incr naux
        | VSlice sl ->
            List.iter
              (fun (v : Schema.var) ->
                Hashtbl.replace aux_slots v.name !naux;
                incr naux)
              sl.sl_outs
        | _ -> ())
      p.vp_steps;
    let aux_arr = Array.make (max 1 !naux) (Value.Int 0) in
    let aux_slot n =
      match Hashtbl.find_opt aux_slots n with
      | Some i -> i
      | None -> invalid_arg ("Runtime: unbound vectorized variable " ^ n)
    in
    (* resolve against this member's own occurrence naming: fused members
       may access the shared source under different positional names *)
    let pos_of name =
      let rec go i = function
        | [] -> None
        | (x : Schema.var) :: tl ->
            if String.equal x.name name then Some i else go (i + 1) tl
      in
      go 0 p.vp_source.vs_vars
    in
    let reader_of = function
      | VSrc c ->
          let cc = cpos.(c) in
          Hashtbl.replace boxed_cols cc ();
          fun () -> Colbatch.get ctx.vc_cols.(cc) ctx.vc_row
      | VAux n ->
          let i = aux_slot n in
          fun () -> aux_arr.(i)
    in
    let reader_of_var (v : Schema.var) =
      match pos_of v.name with
      | Some c -> reader_of (VSrc c)
      | None -> reader_of (VAux v.name)
    in
    (* value expressions over bound columns, resolved at bind time *)
    let rec compile_ve (ve : Vexpr.t) : unit -> Value.t =
      match ve with
      | Vexpr.Const c -> fun () -> c
      | Vexpr.Var x -> reader_of_var x
      | Vexpr.Add (a, b) -> vbin Value.add a b
      | Vexpr.Sub (a, b) -> vbin Value.sub a b
      | Vexpr.Mul (a, b) -> vbin Value.mul a b
      | Vexpr.Div (a, b) -> vbin Value.div a b
      | Vexpr.Neg a ->
          let ca = compile_ve a in
          fun () -> Value.neg (ca ())
      | Vexpr.Floor a ->
          let ca = compile_ve a in
          fun () ->
            Value.Int (int_of_float (Float.floor (Value.to_float (ca ()))))
      | Vexpr.Min (a, b) ->
          let ca = compile_ve a and cb = compile_ve b in
          fun () ->
            let x = ca () and y = cb () in
            if Value.compare x y <= 0 then x else y
      | Vexpr.Max (a, b) ->
          let ca = compile_ve a and cb = compile_ve b in
          fun () ->
            let x = ca () and y = cb () in
            if Value.compare x y >= 0 then x else y
    and vbin op a b =
      let ca = compile_ve a and cb = compile_ve b in
      fun () -> op (ca ()) (cb ())
    in
    (* Float-specialized compilation: statically numeric expressions
       evaluate as raw floats, so hot filters and weights never box a
       [Value] per row (typed columns otherwise allocate on every read).
       The bool tracks possible [Date] operands, whose ordering under
       [Value.compare] (Min/Max) and [Value.neg] differ from plain
       numerics — those shapes fall back to the boxed evaluator. *)
    let rec compile_vf (ve : Vexpr.t) : ((unit -> float) * bool) option =
      match ve with
      | Vexpr.Const (Value.Int i) ->
          let f = float_of_int i in
          Some ((fun () -> f), false)
      | Vexpr.Const (Value.Float f) -> Some ((fun () -> f), false)
      | Vexpr.Const (Value.Date d) ->
          let f = float_of_int d in
          Some ((fun () -> f), true)
      | Vexpr.Const (Value.String _) -> None
      | Vexpr.Var x -> (
          if x.ty = Value.TString then None
          else
            let dateish = x.ty = Value.TDate in
            match pos_of x.name with
            | Some c ->
                let cc = cpos.(c) in
                Some
                  ( (fun () -> Colbatch.float_get ctx.vc_cols.(cc) ctx.vc_row),
                    dateish )
            | None ->
                let i = aux_slot x.name in
                Some ((fun () -> Value.to_float aux_arr.(i)), dateish))
      | Vexpr.Add (a, b) -> fbin ( +. ) a b
      | Vexpr.Sub (a, b) -> fbin ( -. ) a b
      | Vexpr.Mul (a, b) -> fbin ( *. ) a b
      | Vexpr.Div (a, b) -> fbin ( /. ) a b
      | Vexpr.Neg a -> (
          match compile_vf a with
          | Some (fa, false) -> Some ((fun () -> -.fa ()), false)
          | _ -> None)
      | Vexpr.Floor a -> (
          match compile_vf a with
          | Some (fa, d) -> Some ((fun () -> Float.floor (fa ())), d)
          | None -> None)
      | Vexpr.Min (a, b) -> fminmax Float.min a b
      | Vexpr.Max (a, b) -> fminmax Float.max a b
    and fbin op a b =
      match (compile_vf a, compile_vf b) with
      | Some (fa, da), Some (fb, db) ->
          Some ((fun () -> op (fa ()) (fb ())), da || db)
      | _ -> None
    and fminmax op a b =
      match (compile_vf a, compile_vf b) with
      | Some (fa, false), Some (fb, false) ->
          Some ((fun () -> op (fa ()) (fb ())), false)
      | _ -> None
    in
    (* Hoist statically-typed filters out of the per-row chain into
       selection-vector kernels. [classify_filter] is the shared
       authority with the EXPLAIN labels, so [selvec:]/[rowwise:] in the
       plan matches what actually runs. A hoisted membership test
       ([VFilterIn]) keeps its match-count multiply in the residual
       chain — the kernel only gates zero-match rows. *)
    let kerns = ref [] in
    let pass_builder ((op, l, r) : Calc.cmp_op * kside * kside) :
        unit -> int -> bool =
      match (l, r) with
      | KCol c, KNum v ->
          let cc = cpos.(c) in
          fun () -> pass_col_num ctx.vc_cols.(cc) op v
      | KCol c1, KCol c2 ->
          let a = cpos.(c1) and b = cpos.(c2) in
          fun () -> pass_col_col ctx.vc_cols.(a) ctx.vc_cols.(b) op
      | KSCol c, KStr s ->
          let cc = cpos.(c) in
          let kv = Value.String s in
          let cache = ref None in
          fun () -> pass_col_str cache ctx.vc_cols.(cc) op kv
      | KSCol c1, KSCol c2 ->
          let a = cpos.(c1) and b = cpos.(c2) in
          fun () ->
            let ca = ctx.vc_cols.(a) and cb = ctx.vc_cols.(b) in
            fun i -> Calc.eval_cmp op (Colbatch.get ca i) (Colbatch.get cb i)
      | _ -> assert false (* [classify_filter] returns no other pairing *)
    in
    (* A single comparison gets the fully-specialized loops when its
       column is unboxed; everything else wraps its row predicate in the
       generic packed loops. *)
    let kern_builder ((op, l, r) as cf : Calc.cmp_op * kside * kside) :
        unit -> kern =
      match (l, r) with
      | KCol c, KNum v ->
          let cc = cpos.(c) in
          fun () -> (
            match ctx.vc_cols.(cc) with
            | Colbatch.CFloat a -> kern_float_const a op v
            | Colbatch.CInt a | Colbatch.CDate a -> kern_int_const a op v
            | col -> kern_of_pass (pass_col_num col op v))
      | _ ->
          let pb = pass_builder cf in
          fun () -> kern_of_pass (pb ())
    in
    (* Two constant comparisons on the same column fuse into one band
       kernel — one pass, one load per row. *)
    let kern_builder2 c op1 v1 op2 v2 : unit -> kern =
      let cc = cpos.(c) in
      fun () ->
        match ctx.vc_cols.(cc) with
        | Colbatch.CFloat a -> kern_float_const2 a op1 v1 op2 v2
        | Colbatch.CInt a | Colbatch.CDate a -> kern_int_const2 a op1 v1 op2 v2
        | col ->
            let p1 = pass_col_num col op1 v1 and p2 = pass_col_num col op2 v2 in
            kern_of_pass (fun i -> p1 i && p2 i)
    in
    let consts = ref [] (* constant filters, kept in step order *) in
    let add_kern build = kerns := !kerns @ [ build ] in
    let steps =
      List.filter
        (fun st ->
          match st with
          | VFilter (op, a, b) -> (
              match classify_filter p (op, a, b) with
              | Some (op', KCol c, KNum v) ->
                  consts := !consts @ [ (c, op', v) ];
                  false
              | Some cf ->
                  add_kern (kern_builder cf);
                  false
              | None -> true)
          | VFilterIn cs ->
              let cfs = List.map (classify_filter p) cs in
              if List.for_all (fun o -> o <> None) cfs then begin
                let builders =
                  Array.of_list (List.map (fun o -> pass_builder (Option.get o)) cfs)
                in
                add_kern (fun () ->
                    let pfs = Array.map (fun b -> b ()) builders in
                    let np = Array.length pfs in
                    kern_of_pass (fun i ->
                        let rec any j =
                          j < np && ((Array.unsafe_get pfs j) i || any (j + 1))
                        in
                        any 0))
              end;
              true (* the match-count multiply stays in the chain *)
          | _ -> true)
        p.vp_steps
    in
    (* pair same-column constant filters into band kernels; constant
       kernels run before the generic ones (cheapest per scanned row) *)
    let rec pair = function
      | [] -> []
      | (c, op, v) :: rest -> (
          match List.partition (fun (c2, _, _) -> c2 = c) rest with
          | (_, op2, v2) :: more_same, others ->
              kern_builder2 c op v op2 v2 :: pair (more_same @ others)
          | [], _ -> kern_builder (op, KCol c, KNum v) :: pair rest)
    in
    kerns := pair !consts @ !kerns;
    (* account member references for the probes-saved model *)
    List.iter
      (function
        | VGet i | VExists i -> accs.(i).ga_uses <- accs.(i).ga_uses + 1
        | VLift (_, ids) ->
            List.iter (fun i -> accs.(i).ga_uses <- accs.(i).ga_uses + 1) ids
        | _ -> ())
      p.vp_steps;
    let target = pool rt p.vp_stmt.target in
    (* An all-source target key emits through the columnar bulk path:
       hash and compare typed cells in place ([Colbatch.row_hash] is
       bit-compatible with [Oaidx.hash]), materializing the key tuple
       only when the record is first inserted. Keys involving lift/slice
       outputs fall back to the scratch-tuple path. *)
    let src_tkey =
      let rec go acc = function
        | [] -> Some (Array.of_list (List.rev acc))
        | VSrc c :: tl -> go (cpos.(c) :: acc) tl
        | VAux _ :: _ -> None
      in
      go [] p.vp_tkey
    in
    let emit =
      match src_tkey with
      | Some tkc ->
          let eq (key : Vtuple.t) =
            Colbatch.row_eq ctx.vc_cols tkc ctx.vc_row key
          in
          let make () = Colbatch.row_tuple ctx.vc_cols tkc ctx.vc_row in
          if buffered then begin
            let buf = Gmr.create () in
            bufs := (target, buf) :: !bufs;
            fun m ->
              Gmr.add_by buf
                ~hash:(Colbatch.row_hash ctx.vc_cols tkc ctx.vc_row)
                ~eq ~make m
          end
          else
            fun m ->
              Pool.add_by target
                ~hash:(Colbatch.row_hash ctx.vc_cols tkc ctx.vc_row)
                ~eq ~make m
      | None ->
          let tk = Array.of_list (List.map reader_of p.vp_tkey) in
          let tw = Array.length tk in
          let scratch = Array.make tw (Value.Int 0) in
          if buffered then begin
            let buf = Gmr.create () in
            bufs := (target, buf) :: !bufs;
            fun m ->
              for j = 0 to tw - 1 do
                Array.unsafe_set scratch j ((Array.unsafe_get tk j) ())
              done;
              Gmr.add_borrow buf scratch m
          end
          else
            fun m ->
              for j = 0 to tw - 1 do
                Array.unsafe_set scratch j ((Array.unsafe_get tk j) ())
              done;
              Pool.add_borrow target scratch m
    in
    let rec chain steps (k : float -> unit) : float -> unit =
      match steps with
      | [] -> k
      | VGet i :: tl ->
          let a = accs.(i) and next = chain tl k in
          fun m ->
            let v = a.ga_val in
            if v <> 0. then next (m *. v)
      | VExists i :: tl ->
          let a = accs.(i) and next = chain tl k in
          fun m -> if Float.abs a.ga_val >= Gmr.zero_eps then next m
      | VLift (n, ids) :: tl ->
          let s = aux_slot n
          and terms = Array.of_list (List.map (fun i -> accs.(i)) ids)
          and next = chain tl k in
          fun m ->
            let t = ref 0. in
            Array.iter (fun a -> t := !t +. a.ga_val) terms;
            aux_arr.(s) <- Value.Float !t;
            next m
      | VFilter (op, a, b) :: tl -> (
          let next = chain tl k in
          match (compile_vf a, compile_vf b) with
          | Some (fa, _), Some (fb, _) ->
              (* unboxed comparison; [ftest] replicates exactly the
                 numeric branch of [Value.compare_approx] *)
              let test = ftest op in
              fun m -> if test (fa ()) (fb ()) then next m
          | _ ->
              let ca = compile_ve a and cb = compile_ve b in
              fun m -> if Calc.eval_cmp op (ca ()) (cb ()) then next m)
      | VFilterIn cs :: tl ->
          (* membership disjunction: the factor's value is the number of
             matching disjuncts, multiplied into the row weight (a
             hoisted kernel has already gated zero-match rows, making
             this a counted pass-through for them) *)
          let next = chain tl k in
          let tests =
            Array.of_list
              (List.map
                 (fun (op, a, b) ->
                   match (compile_vf a, compile_vf b) with
                   | Some (fa, _), Some (fb, _) ->
                       let t = ftest op in
                       fun () -> t (fa ()) (fb ())
                   | _ ->
                       let ca = compile_ve a and cb = compile_ve b in
                       fun () -> Calc.eval_cmp op (ca ()) (cb ()))
                 cs)
          in
          fun m ->
            let c = ref 0 in
            Array.iter (fun t -> if t () then incr c) tests;
            if !c > 0 then next (m *. float_of_int !c)
      | VWeight ve :: tl -> (
          let next = chain tl k in
          match compile_vf ve with
          | Some (fv, _) ->
              fun m ->
                let x = fv () in
                if x <> 0. then next (m *. x)
          | None ->
              let cv = compile_ve ve in
              fun m ->
                let x = Value.to_float (cv ()) in
                if x <> 0. then next (m *. x))
      | VSlice _ :: _ -> assert false
    in
    let pre, sliced =
      let rec split acc = function
        | [] -> (List.rev acc, None)
        | VSlice sl :: post -> (List.rev acc, Some (sl, post))
        | st :: tl -> split (st :: acc) tl
      in
      split [] steps
    in
    let body =
      match sliced with
      | None -> chain pre emit
      | Some (sl, post) ->
          let gs = gslice_for sl in
          gs.gs_uses <- gs.gs_uses + 1;
          let out_slots =
            Array.of_list
              (List.map (fun (v : Schema.var) -> aux_slot v.name) sl.sl_outs)
          in
          let opos = sl.sl_opos in
          let now = Array.length out_slots in
          let postk = chain post emit in
          let inner m =
            for j = 0 to gs.gs_n - 1 do
              Obs.Counter.incr ops;
              let key = gs.gs_keys.(j) in
              for x = 0 to now - 1 do
                aux_arr.(out_slots.(x)) <- key.(opos.(x))
              done;
              postk (m *. gs.gs_ms.(j))
            done
          in
          chain pre inner
    in
    let sign = p.vp_sign in
    let exists = p.vp_source.vs_exists in
    let clear = p.vp_stmt.op = Prog.Assign in
    let run () =
      let base =
        if exists then ctx.vc_counts.(ctx.vc_row) else ctx.vc_mults.(ctx.vc_row)
      in
      if base <> 0. then begin
        Obs.Counter.incr ops;
        body (base *. sign)
      end
    in
    ((if clear then Some target else None), run, Array.of_list !kerns)
  in
  let members = List.map bind_member ps in
  {
    gi_ctx = ctx;
    gi_members =
      Array.of_list
        (List.map
           (fun (_, run, kerns) ->
             {
               gm_run = run;
               gm_kerns = kerns;
               gm_passes = [||];
               gm_sel = [||];
               gm_cnt = -1;
             })
           members);
    gi_kerned =
      List.exists (fun (_, _, kerns) -> Array.length kerns > 0) members;
    gi_gaccs = Array.of_list !gaccs;
    gi_gslices = Array.of_list !gslices;
    gi_bufs = Array.of_list (List.rev !bufs);
    gi_clears = List.filter_map (fun (c, _, _) -> c) members;
    gi_boxed =
      (let cs = Hashtbl.fold (fun c () acc -> c :: acc) boxed_cols [] in
       Array.of_list (List.sort compare cs));
  }

let resolve_slice ctx gs =
  gs.gs_n <- 0;
    let push key m =
      if gs.gs_n >= Array.length gs.gs_keys then begin
        let cap = max 16 (2 * Array.length gs.gs_keys) in
        let nk = Array.make cap [||] and nm = Array.make cap 0. in
        Array.blit gs.gs_keys 0 nk 0 gs.gs_n;
        Array.blit gs.gs_ms 0 nm 0 gs.gs_n;
        gs.gs_keys <- nk;
        gs.gs_ms <- nm
      end;
      gs.gs_keys.(gs.gs_n) <- key;
      gs.gs_ms.(gs.gs_n) <- m;
      gs.gs_n <- gs.gs_n + 1
    in
    let bw = Array.length gs.gs_bcols in
    for j = 0 to bw - 1 do
      gs.gs_sub.(j) <- Colbatch.get ctx.vc_cols.(gs.gs_bcols.(j)) ctx.vc_row
    done;
    match gs.gs_index with
    | Some index -> Pool.slice gs.gs_pool ~index gs.gs_sub push
    | None ->
        Pool.foreach gs.gs_pool (fun key m ->
            let ok = ref true in
            for j = 0 to bw - 1 do
              if not (Value.equal key.(gs.gs_bpos.(j)) gs.gs_sub.(j)) then
                ok := false
            done;
            if !ok then push key m)

(* Build every member's kernel passes for the current batch. Must run
   after the driver assigns [ctx.vc_cols]; the built passes capture the
   batch's concrete columns, so the per-group hot loop below never
   re-dispatches on column representation or allocates a closure. *)
let prep_inst (inst : ginst) =
  if inst.gi_kerned then
    Array.iter
      (fun m ->
        if Array.length m.gm_kerns > 0 then
          m.gm_passes <- Array.map (fun build -> build ()) m.gm_kerns)
      inst.gi_members

(* Run member [m]'s kernel pipeline over rows [lo, lo+len): a dense
   first pass, then in-place refines over the survivors. Leaves the
   survivor count in [gm_cnt] and returns the (rows scanned, rows
   selected) tallies — scanned counts every pass's input rows, selected
   the final survivor-vector length. *)
let run_kerns (m : gmember) lo len =
  if Array.length m.gm_sel < len then m.gm_sel <- Array.make (max 1024 len) 0;
  let sel = m.gm_sel in
  let passes = m.gm_passes in
  let scanned = ref len in
  let c = ref ((Array.unsafe_get passes 0).kdense lo len sel) in
  for ki = 1 to Array.length passes - 1 do
    scanned := !scanned + !c;
    c := (Array.unsafe_get passes ki).krefine !c sel
  done;
  m.gm_cnt <- !c;
  (!scanned, !c)

(* Run one instance straight over compacted rows [lo, hi) (the no-access
   fast path: nothing to resolve per group). Members with hoisted filter
   kernels scan their columns into packed survivor vectors first and
   fire the per-row chain only over survivors; kernel-less members
   iterate densely. Member-major order is sound for fused groups for
   the same reason fusion itself is ([fuse_ok]): no member reads another
   member's target while the group runs. Returns the (rows scanned,
   rows selected) kernel tallies. *)
let run_rows (inst : ginst) lo hi =
  let ctx = inst.gi_ctx in
  let members = inst.gi_members in
  if not inst.gi_kerned then begin
    (* pure row-major, exactly the pre-kernel path *)
    let nm = Array.length members in
    for r = lo to hi - 1 do
      ctx.vc_row <- r;
      for mi = 0 to nm - 1 do
        (Array.unsafe_get members mi).gm_run ()
      done
    done;
    (0, 0)
  end
  else begin
    let svscan = ref 0 and svsel = ref 0 in
    for mi = 0 to Array.length members - 1 do
      let m = members.(mi) in
      if Array.length m.gm_kerns = 0 then
        for r = lo to hi - 1 do
          ctx.vc_row <- r;
          m.gm_run ()
        done
      else begin
        let sc, se = run_kerns m lo (hi - lo) in
        svscan := !svscan + sc;
        svsel := !svsel + se;
        let sel = m.gm_sel in
        for j = 0 to m.gm_cnt - 1 do
          ctx.vc_row <- Array.unsafe_get sel j;
          m.gm_run ()
        done
      end
    done;
    (!svscan, !svsel)
  end

(* Run one instance over key groups [glo, ghi): run the selection
   kernels first, resolve the shared accessors once per group, then fire
   members over their survivors (kernel-less members over every row).
   When every member has kernels and nothing survives the group, the
   accessors are never resolved at all — the whole group is skipped
   before a single probe. Returns (probes saved, rows scanned, rows
   selected) for the range. *)
let run_groups (inst : ginst) starts (counts : float array) glo ghi =
  let ctx = inst.gi_ctx in
  let members = inst.gi_members in
  let nm = Array.length members in
  let saved = ref 0 and svscan = ref 0 and svsel = ref 0 in
  if not inst.gi_kerned then
    (* pure row-major per group, exactly the pre-kernel path *)
    for g = glo to ghi - 1 do
      let lo = starts.(g) and hi = starts.(g + 1) in
      ctx.vc_row <- lo;
      let orig = ref 0. in
      for r = lo to hi - 1 do
        orig := !orig +. counts.(r)
      done;
      let orig = int_of_float !orig in
      Array.iter
        (fun a ->
          let kw = Array.length a.ga_key in
          for j = 0 to kw - 1 do
            a.ga_scratch.(j) <- Colbatch.get ctx.vc_cols.(a.ga_key.(j)) lo
          done;
          a.ga_val <- Pool.get a.ga_pool a.ga_scratch;
          saved := !saved + (a.ga_uses * orig) - 1)
        inst.gi_gaccs;
      Array.iter
        (fun gs ->
          resolve_slice ctx gs;
          saved := !saved + (gs.gs_uses * orig) - 1)
        inst.gi_gslices;
      for r = lo to hi - 1 do
        ctx.vc_row <- r;
        for mi = 0 to nm - 1 do
          (Array.unsafe_get members mi).gm_run ()
        done
      done
    done
  else
  for g = glo to ghi - 1 do
    let lo = starts.(g) and hi = starts.(g + 1) in
    ctx.vc_row <- lo;
    let live = ref false in
    for mi = 0 to nm - 1 do
      let m = members.(mi) in
      if Array.length m.gm_kerns = 0 then begin
        m.gm_cnt <- -1;
        live := true
      end
      else begin
        let sc, se = run_kerns m lo (hi - lo) in
        svscan := !svscan + sc;
        svsel := !svsel + se;
        if se > 0 then live := true
      end
    done;
    (* the row-at-a-time path would have probed per source row per
       reference; the group resolves each accessor exactly once — or
       zero times, when the kernels filtered the whole group away *)
    let orig = ref 0. in
    for r = lo to hi - 1 do
      orig := !orig +. counts.(r)
    done;
    let orig = int_of_float !orig in
    if !live then begin
      Array.iter
        (fun a ->
          let kw = Array.length a.ga_key in
          for j = 0 to kw - 1 do
            a.ga_scratch.(j) <- Colbatch.get ctx.vc_cols.(a.ga_key.(j)) lo
          done;
          a.ga_val <- Pool.get a.ga_pool a.ga_scratch;
          saved := !saved + (a.ga_uses * orig) - 1)
        inst.gi_gaccs;
      Array.iter
        (fun gs ->
          resolve_slice ctx gs;
          saved := !saved + (gs.gs_uses * orig) - 1)
        inst.gi_gslices;
      for mi = 0 to nm - 1 do
        let m = members.(mi) in
        if m.gm_cnt < 0 then
          for r = lo to hi - 1 do
            ctx.vc_row <- r;
            m.gm_run ()
          done
        else begin
          let sel = m.gm_sel in
          for j = 0 to m.gm_cnt - 1 do
            ctx.vc_row <- Array.unsafe_get sel j;
            m.gm_run ()
          done
        end
      done
    end
    else begin
      Array.iter (fun a -> saved := !saved + (a.ga_uses * orig)) inst.gi_gaccs;
      Array.iter
        (fun gs -> saved := !saved + (gs.gs_uses * orig))
        inst.gi_gslices
    end
  done;
  (!saved, !svscan, !svsel)

let source_colbatch rt (shape : gshape) raw =
  if shape.sh_src.vs_batch then Lazy.force raw
  else
    let p = pool rt shape.sh_src.vs_name in
    Colbatch.of_iter ~width:shape.sh_width ~count:(Pool.cardinal p) (fun f ->
        Pool.foreach p f)

(* Merged batch rows whose multiplicity cancelled to ~0 can be dropped
   before execution when every member weights rows by multiplicity; an
   Exists-wrapped source reads support counts instead, and a cancelled
   row still has support. *)
let group_drop_cancelled (ps : vplan list) =
  List.for_all (fun (p : vplan) -> not p.vp_source.vs_exists) ps

(* Whether any member resolves store accessors per group (probes or
   slices) — the grouped driver only pays for compaction when it does. *)
(* Pre-box the columns in [boxed] (compacted slot numbers): per-row
   boxed readers then return an existing heap value instead of
   allocating a fresh [Value] on every read. Columns only read through
   unboxed paths (float-compiled filters/weights, [row_hash]) keep
   their typed representation. *)
let box_reads (cols : Colbatch.col array) n (boxed : int array) =
  Array.iter
    (fun c ->
      match cols.(c) with
      (* CDict reads are already allocation-free: [get] returns the
         dictionary's shared box, so there is nothing to pre-box. *)
      | Colbatch.CBoxed _ | Colbatch.CDict _ -> ()
      | col -> cols.(c) <- Colbatch.CBoxed (Array.init n (Colbatch.get col)))
    boxed

let plans_have_access (ps : vplan list) =
  List.exists
    (fun (p : vplan) ->
      p.vp_probes <> []
      || List.exists (function VSlice _ -> true | _ -> false) p.vp_steps)
    ps

let bind_group (rt : t) (ps : vplan list) : Colbatch.t Lazy.t -> unit =
  let shape = group_shape ps in
  let drop_cancelled = group_drop_cancelled ps in
  let has_access = plans_have_access ps in
  let wd = dict_want ps shape ~keys:has_access in
  let inst = bind_instance rt ~shape ~buffered:false ps in
  let ctx = inst.gi_ctx in
  let clears = inst.gi_clears in
  (* No store accessors means grouping has nothing to amortize: skip the
     sort-based compaction and run the members straight over the batch
     rows (each batch/pool row is a distinct tuple, so per-row support
     counts are 1). *)
  let no_access = not has_access in
  let ones = ref [||] in
  let ones_of n =
    if Array.length !ones < n then ones := Array.make (max n 1024) 1.;
    !ones
  in
  if no_access then fun raw ->
    let cb = source_colbatch rt shape raw in
    if wd <> [] then Colbatch.dictify_cols cb wd;
    List.iter Pool.clear clears;
    let n = Colbatch.length cb in
    ctx.vc_cols <- Array.map (Colbatch.col cb) shape.sh_sel;
    box_reads ctx.vc_cols n inst.gi_boxed;
    ctx.vc_mults <- Colbatch.mults cb;
    ctx.vc_counts <- ones_of n;
    prep_inst inst;
    let sc, se = run_rows inst 0 n in
    Obs.Counter.add m_selvec_scanned sc;
    Obs.Counter.add m_selvec_selected se;
    (* an Assign member's freshly-cleared target now holds exactly the
       distinct rows of the batch under that statement's key set: the
       difference is the per-statement batch compaction *)
    List.iter
      (fun p -> Obs.Counter.add m_rows_compacted (max 0 (n - Pool.cardinal p)))
      clears
  else fun raw ->
    let cb = source_colbatch rt shape raw in
    if wd <> [] then Colbatch.dictify_cols cb wd;
    List.iter Pool.clear clears;
    let comp, starts, counts =
      Colbatch.compact_group ~drop_cancelled cb ~key:shape.sh_sk
        ~rest:shape.sh_rest
    in
    Obs.Counter.add m_rows_compacted
      (Colbatch.length cb - Colbatch.length comp);
    ctx.vc_cols <- Array.init (Array.length shape.sh_sel) (Colbatch.col comp);
    box_reads ctx.vc_cols (Colbatch.length comp) inst.gi_boxed;
    ctx.vc_mults <- Colbatch.mults comp;
    ctx.vc_counts <- counts;
    prep_inst inst;
    let saved, sc, se =
      run_groups inst starts counts 0 (Array.length starts - 1)
    in
    Obs.Counter.add m_probes_saved saved;
    Obs.Counter.add m_selvec_scanned sc;
    Obs.Counter.add m_selvec_selected se

(* Domain-parallel driver for one vectorized group (§6's argument applied
   locally): D shared-nothing instances run disjoint contiguous ranges of
   the same compacted batch, emitting into private per-member buffers,
   which then merge serially into the target pools by ring [+]. Sound for
   every plannable group because a vectorized statement never reads its
   own target ([plan_stmt_exn]) and no member writes a pool any member
   probes ([fuse_ok]) — so during the fan-out, store pools are read-only
   and all writes land in domain-private buffers. Counter totals (ops,
   probes, rows compacted, probes saved) are identical to the serial
   driver's: the same groups resolve the same accessors, only on
   different domains. *)
let bind_group_par (rt : t) (pl : Par.Pool.t) (ps : vplan list) :
    Colbatch.t Lazy.t -> unit =
  let d = rt.domains in
  let shape = group_shape ps in
  let drop_cancelled = group_drop_cancelled ps in
  let has_access = plans_have_access ps in
  let wd = dict_want ps shape ~keys:has_access in
  let insts =
    Array.init d (fun _ -> bind_instance rt ~shape ~buffered:true ps)
  in
  let inst0 = insts.(0) in
  (* Assign targets are shared pools: every instance lists the same ones *)
  let clears = inst0.gi_clears in
  let no_access = not has_access in
  let merge () =
    Array.iter
      (fun inst ->
        Array.iter
          (fun (target, buf) ->
            (* bulk merge replaying the buffer's cached hashes; keys are
               transferred (the buffer is cleared immediately after) *)
            Pool.merge_gmr target buf;
            Gmr.clear buf)
          inst.gi_bufs)
      insts
  in
  let ones = ref [||] in
  let ones_of n =
    if Array.length !ones < n then ones := Array.make (max n 1024) 1.;
    !ones
  in
  if no_access then fun raw ->
    let cb = source_colbatch rt shape raw in
    if wd <> [] then Colbatch.dictify_cols cb wd;
    List.iter Pool.clear clears;
    let n = Colbatch.length cb in
    let cols = Array.map (Colbatch.col cb) shape.sh_sel in
    box_reads cols n inst0.gi_boxed;
    let mults = Colbatch.mults cb in
    let counts = ones_of n in
    let scs = Array.make d 0 and ses = Array.make d 0 in
    let tasks =
      Array.init d (fun di ->
          let lo = di * n / d and hi = (di + 1) * n / d in
          fun () ->
            let inst = insts.(di) in
            let ctx = inst.gi_ctx in
            ctx.vc_cols <- cols;
            ctx.vc_mults <- mults;
            ctx.vc_counts <- counts;
            prep_inst inst;
            let sc, se = run_rows inst lo hi in
            scs.(di) <- sc;
            ses.(di) <- se)
    in
    Par.Pool.run pl tasks;
    merge ();
    Obs.Counter.add m_selvec_scanned (Array.fold_left ( + ) 0 scs);
    Obs.Counter.add m_selvec_selected (Array.fold_left ( + ) 0 ses);
    List.iter
      (fun p -> Obs.Counter.add m_rows_compacted (max 0 (n - Pool.cardinal p)))
      clears
  else fun raw ->
    let cb = source_colbatch rt shape raw in
    if wd <> [] then Colbatch.dictify_cols cb wd;
    List.iter Pool.clear clears;
    let comp, starts, counts =
      Colbatch.compact_group ~drop_cancelled cb ~key:shape.sh_sk
        ~rest:shape.sh_rest
    in
    Obs.Counter.add m_rows_compacted
      (Colbatch.length cb - Colbatch.length comp);
    let cols = Array.init (Array.length shape.sh_sel) (Colbatch.col comp) in
    box_reads cols (Colbatch.length comp) inst0.gi_boxed;
    let mults = Colbatch.mults comp in
    let ng = Array.length starts - 1 in
    (* contiguous group ranges, balanced by compacted row count (group
       boundaries must not split: an accessor is resolved once per group) *)
    let bounds = Array.make (d + 1) ng in
    bounds.(0) <- 0;
    let total = Colbatch.length comp in
    let gi = ref 0 in
    for di = 1 to d - 1 do
      let row_target = di * total / d in
      while !gi < ng && starts.(!gi) < row_target do
        incr gi
      done;
      bounds.(di) <- !gi
    done;
    let saved = Array.make d 0 in
    let scs = Array.make d 0 and ses = Array.make d 0 in
    let tasks =
      Array.init d (fun di () ->
          let inst = insts.(di) in
          let ctx = inst.gi_ctx in
          ctx.vc_cols <- cols;
          ctx.vc_mults <- mults;
          ctx.vc_counts <- counts;
          prep_inst inst;
          let sv, sc, se =
            run_groups inst starts counts bounds.(di) bounds.(di + 1)
          in
          saved.(di) <- sv;
          scs.(di) <- sc;
          ses.(di) <- se)
    in
    Par.Pool.run pl tasks;
    merge ();
    Obs.Counter.add m_probes_saved (Array.fold_left ( + ) 0 saved);
    Obs.Counter.add m_selvec_scanned (Array.fold_left ( + ) 0 scs);
    Obs.Counter.add m_selvec_selected (Array.fold_left ( + ) 0 ses)

(* ------------------------------------------------------------------ *)
(* Program loading                                                     *)
(* ------------------------------------------------------------------ *)

let create ?(auto_index = true) ?(columnar = true) ?domains
    ?(par_min_rows = 128) (prog : Prog.t) =
  let domains =
    match domains with Some d -> max 1 d | None -> Par.default_domains ()
  in
  let slice_patterns = if auto_index then Patterns.slices prog else [] in
  let batch_patterns = if auto_index then Patterns.batch_slices prog else [] in
  let pools = Hashtbl.create 32 in
  List.iter
    (fun (m : Prog.map_decl) ->
      let slices =
        match List.assoc_opt m.mname slice_patterns with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace pools m.mname
        (Pool.create ~name:m.mname ~key_width:(List.length m.mschema) ~slices
           ()))
    prog.maps;
  let batch_pools = Hashtbl.create 8 in
  List.iter
    (fun (r, vars) ->
      let slices =
        match List.assoc_opt r batch_patterns with Some l -> l | None -> []
      in
      Hashtbl.replace batch_pools r
        (Pool.create ~name:("batch_" ^ r) ~key_width:(List.length vars)
           ~slices ()))
    prog.streams;
  let rt =
    {
      prog;
      pools;
      batch_pools;
      cur_tuple = Vtuple.empty;
      cur_mult = 0.;
      ops = Obs.Counter.make ~register:false "runtime_record_ops";
      domains;
      par = (if domains > 1 then Some (Par.get ~domains) else None);
      par_min_rows;
      triggers_batch = [];
      triggers_single = [];
    }
  in
  (* Batch mode: one ordered executor list per trigger — vectorized
     (possibly fused) statement groups interleaved with generic compiled
     statements, in original statement order. *)
  rt.triggers_batch <-
    List.map
      (fun (tr : Prog.trigger) ->
        let units =
          if columnar then plan_trigger prog tr
          else List.map (fun s -> UStmt s) tr.stmts
        in
        let tx_units =
          List.map
            (function
              | UStmt st ->
                  let label = "stmt:" ^ st.Prog.target in
                  let f = compile_stmt rt ~mode:Batch st in
                  {
                    eu_label = label;
                    eu_slot = Prof.slot ~trigger:tr.relation ~label;
                    eu_run = (fun _ -> f ());
                    eu_par = None;
                  }
              | UGroup ps ->
                  let label = route_label_of_group ps in
                  {
                    eu_label = label;
                    eu_slot = Prof.slot ~trigger:tr.relation ~label;
                    eu_run = bind_group rt ps;
                    eu_par =
                      (match rt.par with
                      | Some pl -> Some (bind_group_par rt pl ps)
                      | None -> None);
                  })
            units
        in
        let tx_load =
          List.exists
            (function
              | UStmt st -> Calc.has_deltas st.Prog.rhs
              | UGroup _ -> false)
            units
        in
        (tr.relation, { tx_load; tx_units }))
      prog.triggers;
  rt.triggers_single <-
    List.map
      (fun (tr : Prog.trigger) ->
        ( tr.relation,
          List.map
            (fun (st : Prog.stmt) ->
              ( Prof.slot ~trigger:tr.relation ~label:("stmt:" ^ st.target),
                compile_stmt rt ~mode:Single st ))
            tr.stmts ))
      prog.triggers;
  rt

let prog rt = rt.prog

let compile_stmts rt stmts = List.map (compile_stmt rt ~mode:Batch) stmts

let load_batch rt ~rel batch =
  let bp =
    match Hashtbl.find_opt rt.batch_pools rel with
    | Some p -> p
    | None -> invalid_arg ("Runtime.load_batch: unknown stream " ^ rel)
  in
  Pool.clear bp;
  Gmr.iter (fun tup m -> Pool.add bp tup m) batch

let add_to_map rt name tup m = Pool.add (pool rt name) tup m
let clear_map rt name = Pool.clear (pool rt name)
let map_cardinal rt name = Pool.cardinal (pool rt name)

let total_tuples rt =
  List.fold_left
    (fun acc (m : Prog.map_decl) ->
      match m.mkind with
      | Prog.Transient -> acc
      | _ -> acc + Pool.cardinal (pool rt m.mname))
    0 rt.prog.maps

(* Fold one finished trigger into the global registry. Runs once per batch
   (or single update), so it may afford the [total_tuples] walk. *)
let report (rt : t) ~ops0 ~tuples ~t0 ~single =
  let wall = Unix.gettimeofday () -. t0 in
  let dops = Obs.Counter.value rt.ops - ops0 in
  Obs.Counter.add m_record_ops dops;
  Obs.Counter.add m_tuples tuples;
  if single then Obs.Counter.incr m_singles
  else begin
    (* the single-tuple fast path skips everything but plain counters *)
    Obs.Counter.incr m_batches;
    Obs.Histogram.observe h_batch_seconds wall;
    Obs.Gauge.set g_stored_tuples (float_of_int (total_tuples rt))
  end;
  { ops = dops; tuples; wall }

(* Attribute one firing's counter deltas to a profiler slot. Reads four
   counters before and after the closure — O(#statements) per batch, and
   with the profiler disabled the firing path pays only the flag check in
   the callers below. *)
let attributed (rt : t) slot f =
  let t0 = Unix.gettimeofday () in
  let o0 = Obs.Counter.value rt.ops
  and p0 = Obs.Counter.value m_probes
  and ms0 = Obs.Counter.value m_probe_misses
  and s0 = Obs.Counter.value m_slice_scanned
  and v0 = Obs.Counter.value m_selvec_scanned
  and e0 = Obs.Counter.value m_selvec_selected in
  f ();
  Prof.add slot
    ~ops:(Obs.Counter.value rt.ops - o0)
    ~probes:(Obs.Counter.value m_probes - p0)
    ~misses:(Obs.Counter.value m_probe_misses - ms0)
    ~scanned:(Obs.Counter.value m_slice_scanned - s0)
    ~svscan:(Obs.Counter.value m_selvec_scanned - v0)
    ~svsel:(Obs.Counter.value m_selvec_selected - e0)
    ~bytes:0
    ~wall:(Unix.gettimeofday () -. t0)

let run_attributed rt ~label ~slot f =
  if Prof.enabled () then Obs.span label (fun () -> attributed rt slot f)
  else Obs.span label f

(* Parallel execution excludes itself while any single-writer observer is
   live: the profiler's slot arrays, the span tracer's stack, and the
   cachesim's trace sink all keep global mutable state (see obs.mli's
   memory-ordering contract). Those runs take the serial path, which also
   keeps their exact-equality reconciliations trivially intact. *)
let par_active rt =
  rt.par <> None
  && (not (Prof.enabled ()))
  && (not (Obs.tracing ()))
  && not (Trace.enabled ())

let apply_batch rt ~rel batch =
  let tx =
    match List.assoc_opt rel rt.triggers_batch with
    | Some tx -> tx
    | None -> invalid_arg ("Runtime.apply_batch: no trigger for " ^ rel)
  in
  let t0 = Unix.gettimeofday () in
  let ops0 = Obs.Counter.value rt.ops in
  let use_par = par_active rt && Gmr.cardinal batch >= rt.par_min_rows in
  Obs.span ("trigger:" ^ rel) (fun () ->
      (* the batch pool only matters to generic statements; fully
         vectorized triggers skip the per-tuple load entirely *)
      if tx.tx_load then load_batch rt ~rel batch;
      let width =
        match List.assoc_opt rel rt.prog.streams with
        | Some vars -> List.length vars
        | None -> 0
      in
      let raw = lazy (Colbatch.of_gmr ~width batch) in
      List.iter
        (fun u ->
          let run =
            match u.eu_par with
            | Some pf when use_par -> pf
            | _ -> u.eu_run
          in
          run_attributed rt ~label:u.eu_label ~slot:u.eu_slot (fun () ->
              run raw))
        tx.tx_units);
  report rt ~ops0 ~tuples:(Gmr.cardinal batch) ~t0 ~single:false

let apply_single rt ~rel tup m =
  let stmts =
    match List.assoc_opt rel rt.triggers_single with
    | Some stmts -> stmts
    | None -> invalid_arg ("Runtime.apply_single: no trigger for " ^ rel)
  in
  let t0 = Unix.gettimeofday () in
  let ops0 = Obs.Counter.value rt.ops in
  rt.cur_tuple <- tup;
  rt.cur_mult <- m;
  (* the single-tuple fast path never opens spans; under an enabled
     profiler it still charges per-statement deltas *)
  if Prof.enabled () then
    List.iter (fun (slot, f) -> attributed rt slot f) stmts
  else List.iter (fun (_, f) -> f ()) stmts;
  report rt ~ops0 ~tuples:1 ~t0 ~single:true

let load rt tables =
  (* streams absent from the load are empty relations *)
  let tables =
    tables
    @ List.filter_map
        (fun (r, _) ->
          if List.mem_assoc r tables then None else Some (r, Gmr.create ()))
        rt.prog.streams
  in
  let src = Divm_eval.Interp.source_of_rels tables in
  List.iter
    (fun (m : Prog.map_decl) ->
      match m.mkind with
      | Prog.Transient -> ()
      | _ ->
          let sch, g = Divm_eval.Interp.eval_closed src m.definition in
          let p = pool rt m.mname in
          Pool.clear p;
          if sch = m.mschema then Gmr.iter (fun tup mm -> Pool.add p tup mm) g
          else begin
            let pos = Schema.positions m.mschema sch in
            Gmr.iter
              (fun tup mm -> Pool.add p (Vtuple.project tup pos) mm)
              g
          end)
    rt.prog.maps

let map_contents rt name = Pool.to_gmr (pool rt name)
let iter_map rt name f = Pool.foreach (pool rt name) f

let result rt qname =
  match List.assoc_opt qname rt.prog.queries with
  | Some m -> map_contents rt m
  | None -> invalid_arg ("Runtime.result: unknown query " ^ qname)

let ops (rt : t) = Obs.Counter.value rt.ops
let reset_ops (rt : t) = Obs.Counter.reset rt.ops
let domains (rt : t) = rt.domains

(* Per trigger, each statement (in original order) with the route label
   batch mode gives it plus its filter split: "stmt:T" for the generic
   closure path, "columnar:T" / "columnar-join:T" for solo vectorized
   statements ("selvec:T" / "selvec-join:T" when ≥1 filter hoists to a
   selection-vector kernel), and a shared "fused:T1+T2" /
   "fused-selvec:T1+T2" label for every member of a fused group. The
   ints are (filters hoisted to kernels, filters on the per-row path)
   for that statement. The same [plan_trigger] that [create] uses
   produces this, and the same [classify_filter] the binder uses decides
   the split — so EXPLAIN agrees with the runtime by construction. *)
let stmt_routes_ex (prog : Prog.t) :
    (string * (Prog.stmt * string * int * int) list) list =
  List.map
    (fun (tr : Prog.trigger) ->
      ( tr.relation,
        List.concat_map
          (function
            | UStmt s -> [ (s, "stmt:" ^ s.Prog.target, 0, 0) ]
            | UGroup ps ->
                let lbl = route_label_of_group ps in
                List.map
                  (fun (p : vplan) ->
                    let sv, rw = plan_filter_split p in
                    (p.vp_stmt, lbl, sv, rw))
                  ps)
          (plan_trigger prog tr) ))
    prog.Prog.triggers

let stmt_routes (prog : Prog.t) : (string * (Prog.stmt * string) list) list =
  List.map
    (fun (rel, stmts) ->
      (rel, List.map (fun (s, lbl, _, _) -> (s, lbl)) stmts))
    (stmt_routes_ex prog)

(* Per-statement multicore decision, from the same planner and access
   analysis EXPLAIN uses: every vectorized group fans its batch ranges out
   over domains and merges per-domain partial deltas by ring [+]; every
   generic statement serializes on the applying domain, and the reason
   names what defeats vectorization — the self-read, or the first
   unbindable full-map scan ([Patterns.Foreach] over a store map). *)
let par_routes (prog : Prog.t) : (string * (Prog.stmt * string) list) list =
  List.map
    (fun (rel, stmts) ->
      ( rel,
        List.map
          (fun ((s : Prog.stmt), lbl) ->
            let generic =
              String.length lbl >= 5
              && String.equal (String.sub lbl 0 5) "stmt:"
            in
            let decision =
              if not generic then "parallel"
              else if List.mem s.target (Calc.map_refs s.rhs) then
                "serialize: reads own target"
              else
                match
                  List.find_opt
                    (fun (a : Patterns.access) ->
                      a.acc_kind = `Map && a.acc_path = Patterns.Foreach)
                    (Patterns.accesses s)
                with
                | Some a -> "serialize: full scan of " ^ a.acc_name
                | None -> "serialize: not vectorizable"
            in
            (s, decision))
          stmts ))
    (stmt_routes prog)

(* The (trigger relation, target) pairs batch mode routes through the
   vectorized executor, exposed for EXPLAIN and its tests. *)
let columnar_routed (prog : Prog.t) =
  List.concat_map
    (fun (rel, stmts) ->
      List.filter_map
        (fun ((s : Prog.stmt), lbl) ->
          if String.length lbl >= 5 && String.equal (String.sub lbl 0 5) "stmt:"
          then None
          else Some (rel, s.target))
        stmts)
    (stmt_routes prog)

let storage_stats rt =
  let maps =
    List.filter_map
      (fun (m : Prog.map_decl) ->
        Option.map
          (fun p ->
            Pool.observe p;
            (m.mname, Pool.stats p))
          (Hashtbl.find_opt rt.pools m.mname))
      rt.prog.maps
  in
  let batches =
    List.filter_map
      (fun (r, _) ->
        Option.map
          (fun p ->
            Pool.observe p;
            ("batch_" ^ r, Pool.stats p))
          (Hashtbl.find_opt rt.batch_pools r))
      rt.prog.streams
  in
  maps @ batches
