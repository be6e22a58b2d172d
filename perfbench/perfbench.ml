(* The measuring side of the benchmark (see README.md). Four commands:

     perfbench.exe gen --workload W --seed N --out FILE
     perfbench.exe cpus --workload W --trace 0|1
     perfbench.exe run --workload W --input FILE --seconds S --trace 0|1
                       [--spans FILE]
     perfbench.exe selftest

   [run] repeats one pass over the fixed input until [--seconds] have
   elapsed. A pass creates an engine, bulk-loads the base, applies every
   batch (reading every view after each batch on read workloads) and
   shuts the engine down, so every pass does identical work whatever the
   speed of the build. It prints one line [PERFBENCH_RESULT {...}]. The
   engine is driven only through [Workload], [Engine] and the static
   [Runtime] route planners; every number comes from [Engine.report],
   [Engine.storage_stats], [Obs] snapshot diffs, [Gc.quick_stat] and
   /proc. Worker processes run the executable that [DIVM_NODE_EXE] names. *)

open Divm

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Nearest-rank percentile, and how many samples lie above it. *)
  let percentile t p =
    let s = sorted t in
    if t.n = 0 then (nan, 0)
    else
      let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
      (s.(rank - 1), t.n - rank)

  let median t = fst (percentile t 50.)
end

(* ------------------------------------------------------------------ *)
(* Engine construction                                                 *)
(* ------------------------------------------------------------------ *)

let engine_config (spec : Input.spec) ~domains =
  match spec.backend with
  | Local _ -> Engine.config ~backend:Local ~domains ~batch_size:spec.batch ()
  | Multi workers ->
      Engine.config ~backend:(Multiprocess (Node.config ~workers ())) ~batch_size:spec.batch ()

let spec_domains (spec : Input.spec) =
  match spec.backend with Local d -> d | Multi _ -> 1

(* How many CPUs [run.py] lets a run use. On the 2-vCPU host the
   benchmark was sized on, a guest keeping both vCPUs busy lost a quarter
   of its CPU time to other guests (hypervisor steal) and ran 2-3x slower,
   while one busy vCPU lost almost none. So a run uses one CPU: the
   coordinator and its workers take turns on it. Only the traced run of a
   local workload needs two, for its other-domain-count passes. *)
let run_cpus (spec : Input.spec) ~trace =
  match spec.backend with Local _ when trace -> 2 | Local _ | Multi _ -> 1

(* ------------------------------------------------------------------ *)
(* Per-layer ledger (traced runs only)                                 *)
(* ------------------------------------------------------------------ *)

(* A traced run fills the ledger from two kinds of pass. Untraced passes
   give the engine's own reports, GC and setup phases, so no instrument
   is inside those walls (with [Obs] collection armed, the multiprocess
   engine pulls worker telemetry inside [apply_batch] and counts its
   frames as wire bytes). Traced passes give only the [Obs] counter
   diffs, normalised by their own tuple count. *)
type layers = {
  mutable passes : int;  (** untraced passes *)
  mutable tuples : int;  (** tuples of the untraced passes *)
  mutable counted_tuples : int;  (** tuples of the traced passes *)
  mutable batches : int;
  mutable compile : float;
  mutable distribute : float;
  mutable create : float;
  mutable load : float;
  mutable load_rows : int;
  busy : (string, float ref) Hashtbl.t;
  mutable ops : int;
  mutable alloc_words : float;
  mutable major_collections : int;
  mutable major_words : float;
  mutable obs : (string * Obs.value) list;  (** summed phase diffs *)
  mutable round_trips : int;
  mutable wall : float;
  mutable stage : float;
  mutable transfer : float;
  mutable empty_transfer : float;
  mutable predicted : float;
  mutable measured : float;
  mutable wire : int;
  mutable shuffled : int;
  mutable worker_walls : float array;
  mutable reads : int;
  mutable read_s : float;
  mutable read_tuples : int;
  mutable storage : (string * Pool.stats) list;  (** last untraced pass *)
}

let new_layers () =
  {
    passes = 0; tuples = 0; counted_tuples = 0; batches = 0; compile = 0.; distribute = 0.;
    create = 0.; load = 0.; load_rows = 0; busy = Hashtbl.create 8; ops = 0;
    alloc_words = 0.; major_collections = 0; major_words = 0.; obs = [];
    round_trips = 0; wall = 0.; stage = 0.; transfer = 0.;
    empty_transfer = 0.; predicted = 0.; measured = 0.; wire = 0;
    shuffled = 0; worker_walls = [||]; reads = 0; read_s = 0.;
    read_tuples = 0; storage = [];
  }

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Sum of a counter family over every label set (worker-labelled series
   arrive only while [Obs] collection is armed). *)
let counter_sum snap base =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Obs.VCounter c when Obs.base_of name = base -> acc + c
      | _ -> acc)
    0 snap

let add_obs (l : layers) diff =
  let merged = Hashtbl.create 64 in
  List.iter
    (fun (n, v) -> match v with Obs.VCounter c -> Hashtbl.replace merged n c | _ -> ())
    l.obs;
  List.iter
    (fun (n, v) ->
      match v with
      | Obs.VCounter c ->
          Hashtbl.replace merged n
            (c + Option.value ~default:0 (Hashtbl.find_opt merged n))
      | _ -> ())
    diff;
  l.obs <- Hashtbl.fold (fun n c acc -> (n, Obs.VCounter c) :: acc) merged []

let add_report (l : layers) ~rel ~wall (r : Engine.report) =
  l.batches <- l.batches + 1;
  l.ops <- l.ops + r.ops;
  l.wall <- l.wall +. wall;
  l.wire <- l.wire + r.wire_bytes;
  l.shuffled <- l.shuffled + r.bytes_shuffled;
  (match Hashtbl.find_opt l.busy rel with
  | Some x -> x := !x +. wall
  | None -> Hashtbl.add l.busy rel (ref wall));
  if r.stage_stats <> [] then
    (* one load barrier, then one barrier per stage or transfer *)
    l.round_trips <- l.round_trips + 1 + List.length r.stage_stats;
  List.iter
    (fun (s : Node.stage_stat) ->
      if starts_with "stage:" s.sname then l.stage <- l.stage +. s.measured
      else begin
        l.transfer <- l.transfer +. s.measured;
        if s.sbytes = 0 then l.empty_transfer <- l.empty_transfer +. s.measured
      end;
      l.predicted <- l.predicted +. s.predicted;
      l.measured <- l.measured +. s.measured;
      let w = Array.length s.swalls in
      if w > 0 then begin
        if Array.length l.worker_walls <> w then l.worker_walls <- Array.make w 0.;
        Array.iteri (fun i x -> l.worker_walls.(i) <- l.worker_walls.(i) +. x) s.swalls
      end)
    r.stage_stats

let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* ------------------------------------------------------------------ *)
(* One pass over the input                                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup : float;
  phase : float;  (** wall of the apply and read calls *)
  tuples : int;
  lat : Samples.t;  (** this pass's [apply_batch] walls *)
  fresh : Samples.t;  (** this pass's apply-to-read-back walls *)
  views : (string * Gmr.t) list;
  self_kb : int;
  workers_kb : int;
  workers : int list;
  leaked : int list;
}

type totals = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  batch_s : Samples.t;
  fresh_s : Samples.t;
  setup_s : Samples.t;
}

(* A correctness problem: a wrong view or a worker left running. *)
let problem tot msg = if List.length tot.errors < 10 then tot.errors <- msg :: tot.errors

(* A failed [apply_batch] or [query] call. *)
let fail tot msg =
  tot.failed <- tot.failed + 1;
  problem tot msg

exception Abort

(* What a pass contributes besides its end-to-end samples. *)
type role =
  | Plain
  | Reports of layers  (** untraced: engine reports, GC, setup phases *)
  | Counters of layers  (** spans on, [Obs] armed: counter diffs only *)

(* [record] says whether this pass's latencies count toward the
   end-to-end samples. *)
let run_pass (spec : Input.spec) (input : Input.packed) ~domains ~views ~(tot : totals)
    ~record ~role =
  let reports = match role with Reports l -> Some l | Plain | Counters _ -> None in
  let traced = match role with Counters _ -> true | Plain | Reports _ -> false in
  Ledger.enabled := traced;
  Obs.set_collection (traced && match spec.backend with Multi _ -> true | Local _ -> false);
  let w = Input.workload spec in
  let span = Ledger.span in
  let base = Input.base input in
  let t_setup = now () in
  (match reports with
  | Some l ->
      let t0 = now () in
      let prog = Workload.compile w in
      let t1 = now () in
      l.compile <- l.compile +. (t1 -. t0);
      (match spec.backend with
      | Multi _ ->
          ignore (Workload.distribute w prog);
          l.distribute <- l.distribute +. (now () -. t1)
      | Local _ -> ())
  | None -> ());
  let t_create = now () in
  let eng =
    span "Engine.create" (fun () -> Engine.create ~config:(engine_config spec ~domains) w)
  in
  let t_load = now () in
  let result =
    Fun.protect
      ~finally:(fun () -> Engine.shutdown eng)
      (fun () ->
        span "Engine.load" (fun () -> Engine.load eng base);
        let t_ready = now () in
        let setup = t_ready -. t_setup in
        (* Workers live until shutdown; listed outside the timed setup. *)
        let workers = Procs.children () in
        (match reports with
        | Some l ->
            l.create <- l.create +. (t_load -. t_create);
            l.load <- l.load +. (t_ready -. t_load);
            l.load_rows <- l.load_rows + input.base_rows
        | None -> ());
        let obs0 = if traced then Obs.snapshot () else [] in
        let gc0 = Gc.quick_stat () in
        let tuples = ref 0 and phase = ref 0. in
        let lat = Samples.create () and fresh = Samples.create () in
        (try
           for i = 0 to Array.length input.p_batches - 1 do
             let rel, b = Input.batch input i in
             span ~batch:i "batch" (fun () ->
                 let a0 = if reports <> None then Gc.quick_stat () else gc0 in
                 let t0 = now () in
                 tot.attempted <- tot.attempted + 1;
                 let r =
                   try span ~batch:i ("apply_batch:" ^ rel) (fun () -> Engine.apply_batch eng ~rel b)
                   with e ->
                     fail tot (Printf.sprintf "apply_batch %s #%d: %s" rel i (Printexc.to_string e));
                     raise Abort
                 in
                 let t1 = now () in
                 tuples := !tuples + r.tuples;
                 (match reports with
                 | Some l ->
                     l.alloc_words <- l.alloc_words +. alloc_words (Gc.quick_stat ()) -. alloc_words a0;
                     add_report l ~rel ~wall:(t1 -. t0) r
                 | None -> ());
                 if spec.reads then
                   List.iter
                     (fun v ->
                       tot.attempted <- tot.attempted + 1;
                       match span ~batch:i ("query:" ^ v) (fun () -> Engine.query eng v) with
                       | g -> (
                           match reports with
                           | Some l -> l.read_tuples <- l.read_tuples + Gmr.cardinal g
                           | None -> ())
                       | exception e ->
                           fail tot (Printf.sprintf "query %s #%d: %s" v i (Printexc.to_string e)))
                     views;
                 let t2 = now () in
                 (match reports with
                 | Some l when spec.reads ->
                     l.reads <- l.reads + 1;
                     l.read_s <- l.read_s +. (t2 -. t1)
                 | _ -> ());
                 phase := !phase +. (t2 -. t0);
                 Samples.add lat (t1 -. t0);
                 Samples.add fresh (t2 -. t0);
                 if record then begin
                   Samples.add tot.batch_s (t1 -. t0);
                   Samples.add tot.fresh_s (t2 -. t0)
                 end)
           done
         with Abort -> ());
        let phase = !phase in
        let gc1 = Gc.quick_stat () in
        (match role with
        | Reports l ->
            l.passes <- l.passes + 1;
            l.tuples <- l.tuples + !tuples;
            l.major_collections <- l.major_collections + gc1.major_collections - gc0.major_collections;
            l.major_words <- l.major_words +. gc1.major_words -. gc0.major_words;
            l.storage <- Engine.storage_stats eng
        | Counters l ->
            l.counted_tuples <- l.counted_tuples + !tuples;
            add_obs l (Obs.diff ~later:(Obs.snapshot ()) ~earlier:obs0)
        | Plain -> ());
        let final =
          List.filter_map
            (fun v ->
              tot.attempted <- tot.attempted + 1;
              match Engine.query eng v with
              | g -> Some (v, g)
              | exception e ->
                  fail tot (Printf.sprintf "final query %s: %s" v (Printexc.to_string e));
                  None)
            views
        in
        ( setup, phase, !tuples, lat, fresh, final, workers,
          Procs.hwm_kb (Unix.getpid ()),
          List.fold_left (fun a p -> a + Procs.hwm_kb p) 0 workers ))
  in
  let setup, phase, tuples, lat, fresh, final, workers, self_kb, workers_kb = result in
  if record then Samples.add tot.setup_s setup;
  Ledger.enabled := false;
  Obs.set_collection false;
  {
    setup; phase; tuples; lat; fresh; views = final; self_kb; workers_kb; workers;
    leaked = List.filter Procs.exists workers;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let json_str s = Obs.json_string s

let metrics_json ms =
  json_obj
    (List.map
       (fun (name, value, unit) ->
         (name, json_obj [ ("value", json_float value); ("unit", json_str unit) ]))
       ms)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Statement routes as the runtime planner decides them. Distributed
   backends run every statement on the generic closure route. *)
let routes (spec : Input.spec) prog =
  match spec.backend with
  | Multi _ -> (Prog.stmt_count prog, 0, 0)
  | Local _ ->
      let count f l = List.fold_left (fun a (_, ss) -> a + List.length (List.filter f ss)) 0 l in
      let r = Runtime.stmt_routes prog in
      ( count (fun (_, lbl) -> starts_with "stmt:" lbl) r,
        count (fun (_, lbl) -> not (starts_with "stmt:" lbl)) r,
        count (fun (_, lbl) -> lbl = "parallel") (Runtime.par_routes prog) )

let layer_metrics (spec : Input.spec) (l : layers) ~prog ~overhead ~speedup
    ~self_kb ~workers_kb =
  let n = fi (max 1 l.passes) and t = fi (max 1 l.tuples) in
  let nb = fi (max 1 l.batches) in
  let c name = fi (counter_sum l.obs name) and ct = fi (max 1 l.counted_tuples) in
  let generic, vectorized, parallel = routes spec prog in
  let st = l.storage in
  let sum f = fi (List.fold_left (fun a (_, s) -> a + f s) 0 st) in
  let probe_n, probe_len =
    List.fold_left
      (fun (n, len) (_, (s : Pool.stats)) ->
        let n' = ref n and len' = ref len in
        Array.iteri
          (fun d k ->
            n' := !n' + k;
            len' := !len' + ((d + 1) * k))
          s.s_probe_hist;
        (!n', !len'))
      (0, 0) st
  in
  let walls = Array.copy l.worker_walls in
  Array.sort compare walls;
  let straggler =
    let w = Array.length walls in
    if w = 0 then 0.
    else
      let median =
        if w land 1 = 1 then walls.(w / 2)
        else (walls.((w / 2) - 1) +. walls.(w / 2)) /. 2.
      in
      ratio walls.(w - 1) median
  in
  let is_multi = match spec.backend with Multi _ -> true | Local _ -> false in
  let busy rel =
    ( "runtime.busy_ms." ^ rel,
      (match Hashtbl.find_opt l.busy rel with Some x -> !x | None -> 0.) *. 1e3 /. n,
      "ms" )
  in
  [
    ("setup.compile_s", l.compile /. n, "s");
    ("setup.distribute_s", l.distribute /. n, "s");
    (* Engine.create repeats the compilation timed above; on local
       backends the remainder is within timer noise, hence the clamp. *)
    ("setup.spawn_s", Float.max 0. (l.create -. l.compile -. l.distribute) /. n, "s");
    ("setup.load_s", l.load /. n, "s");
    ("setup.load_rows_per_s", ratio (fi l.load_rows) l.load, "rows/s");
  ]
  @ List.map busy [ "lineitem"; "orders"; "customer"; "part"; "supplier"; "nation" ]
  @ [
      ("runtime.ops_per_tuple", fi l.ops /. t, "ops/tuple");
      ("runtime.alloc_words_per_tuple", l.alloc_words /. t, "words/tuple");
      ("runtime.compacted_per_tuple", c "divm_batch_rows_compacted_total" /. ct, "rows/tuple");
      ("runtime.cancelled_per_tuple", c "divm_batch_rows_cancelled_total" /. ct, "rows/tuple");
      ("runtime.generic_stmts", fi generic, "count");
      ("runtime.vectorized_stmts", fi vectorized, "count");
      ("kernel.selvec_scanned_per_tuple", c "divm_selvec_rows_scanned_total" /. ct, "rows/tuple");
      ( "kernel.selvec_selectivity",
        ratio (c "divm_selvec_rows_selected_total") (c "divm_selvec_rows_scanned_total"),
        "ratio" );
      ( "dict.intern_hit_ratio",
        ratio (c "divm_dict_intern_hits_total")
          (c "divm_dict_intern_hits_total" +. c "divm_dict_intern_misses_total"),
        "ratio" );
      ("probe.per_tuple", c "divm_index_probes_total" /. ct, "probes/tuple");
      ("probe.miss_ratio", ratio (c "divm_index_probe_misses_total") (c "divm_index_probes_total"), "ratio");
      ("probe.saved_per_tuple", c "divm_probes_saved_total" /. ct, "probes/tuple");
      ("slice.scanned_per_tuple", c "divm_slice_scanned_total" /. ct, "rows/tuple");
      ("storage.live", sum (fun s -> s.s_live), "records");
      ("storage.free_slots", sum (fun s -> s.s_free), "slots");
      ("storage.hwm", sum (fun s -> s.s_hwm), "slots");
      ("storage.load_max", List.fold_left (fun a (_, (s : Pool.stats)) -> Float.max a s.s_load) 0. st, "ratio");
      ("storage.probe_len_mean", ratio (fi probe_len) (fi probe_n), "probes");
      ("gc.major_collections", fi l.major_collections /. n, "count");
      ("gc.major_words_per_tuple", l.major_words /. t, "words/tuple");
      ("par.speedup", speedup, "ratio");
      ("par.parallel_stmts", fi parallel, "count");
      ("node.round_trips_per_batch", fi l.round_trips /. nb, "count");
      ("node.batch_wall_ms", (if is_multi then l.wall *. 1e3 /. nb else 0.), "ms");
      ("node.stage_ms", l.stage *. 1e3 /. nb, "ms");
      ("node.transfer_ms", l.transfer *. 1e3 /. nb, "ms");
      ("node.empty_transfer_ms", l.empty_transfer *. 1e3 /. nb, "ms");
      ( "node.coordinator_ms",
        (if is_multi then (l.wall -. l.stage -. l.transfer) *. 1e3 /. nb else 0.),
        "ms" );
      ("node.wire_bytes_per_tuple", fi l.wire /. t, "B/tuple");
      ("node.shuffled_bytes_per_tuple", fi l.shuffled /. t, "B/tuple");
      ("node.worker_ops_per_tuple", c "divm_node_worker_ops_total" /. ct, "ops/tuple");
      ("node.straggler_ratio", straggler, "ratio");
      ("node.model_ratio", ratio l.predicted l.measured, "ratio");
      ("read.ms", ratio (l.read_s *. 1e3) (fi l.reads), "ms");
      ("read.result_tuples", ratio (fi l.read_tuples) (fi l.reads), "tuples");
      ("proc.coordinator_rss_mb", fi self_kb /. 1024., "MiB");
      ("proc.worker_rss_mb", fi workers_kb /. 1024., "MiB");
      ("trace.overhead", overhead, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let cmd_gen ~workload ~seed ~out =
  let spec = Input.find_spec workload in
  Input.save out (Input.pack (Input.generate spec ~seed))

let pass_tps p = ratio (fi p.tuples) p.phase

let tps passes =
  let t, s = List.fold_left (fun (t, s) p -> (t + p.tuples, s +. p.phase)) (0, 0.) passes in
  ratio (fi t) s

let cmd_run ~workload ~input ~seconds ~trace ~spans =
  let spec = Input.find_spec workload in
  let t_start = now () in
  let input = Input.load input in
  let t_loaded = now () in
  let views = Input.view_names spec in
  let tot =
    {
      attempted = 0; failed = 0; errors = [];
      batch_s = Samples.create (); fresh_s = Samples.create (); setup_s = Samples.create ();
    }
  in
  let d = spec_domains spec in
  (* A traced run cycles untraced, traced and (local backends)
     other-domain-count passes, for the ledger, trace.overhead and
     par.speedup. *)
  let kinds =
    if not trace then [ `Plain ]
    else match spec.backend with Local _ -> [ `Plain; `Traced; `Other ] | Multi _ -> [ `Plain; `Traced ]
  in
  let layers = new_layers () in
  let plain = ref [] and traced = ref [] and other = ref [] in
  let deadline = now () +. seconds in
  let k = ref 0 in
  while now () < deadline || !k < List.length kinds do
    let kind = List.nth kinds (!k mod List.length kinds) in
    incr k;
    let p =
      match kind with
      | `Plain ->
          run_pass spec input ~domains:d ~views ~tot ~record:true
            ~role:(if trace then Reports layers else Plain)
      | `Traced -> run_pass spec input ~domains:d ~views ~tot ~record:false ~role:(Counters layers)
      | `Other -> run_pass spec input ~domains:(3 - d) ~views ~tot ~record:false ~role:Plain
    in
    (match kind with `Plain -> plain := p :: !plain | `Traced -> traced := p :: !traced | `Other -> other := p :: !other);
    List.iter (fun pid -> problem tot (Printf.sprintf "worker %d left running after shutdown" pid)) p.leaked
  done;
  let all = !plain @ !traced @ !other in
  let self_kb = Procs.hwm_kb (Unix.getpid ()) in
  let workers_kb = List.fold_left (fun a p -> max a p.workers_kb) 0 all in
  (* Correctness, outside the timed window: every pass must end with
     every view equal to the interpreter's re-evaluation. *)
  let t_oracle = now () in
  let want = Oracle.expected (Input.workload spec) (Input.net input) in
  List.iteri
    (fun i p ->
      List.iter (fun e -> problem tot (Printf.sprintf "pass %d: %s" i e)) (Oracle.check ~want p.views))
    (List.rev all);
  let t_checked = now () in
  let pct s p = fst (Samples.percentile s p) in
  (* The host the benchmark was sized on alternates, for tens of seconds
     at a time, between a slow steady speed and faster stretches whose
     speed scatters by tens of percent, and a run catches some mix of the
     two. The slower quarter of the passes sits at the steady speed in
     most runs, so a pass metric reports the value three passes in four
     reach or beat: the lower quartile over passes of a throughput, the
     upper quartile of a latency. *)
  let over_passes q f =
    let x = Samples.create () in
    List.iter (fun p -> Samples.add x (f p)) !plain;
    pct x q
  in
  let rate f = over_passes 25. f and latency_ms f = over_passes 75. f *. 1e3 in
  let metrics =
    if not trace then
      [
        ("tuples_per_s", rate pass_tps, "tuples/s");
        ("batch_ms.p50", latency_ms (fun p -> pct p.lat 50.), "ms");
        ("batch_ms.p90", latency_ms (fun p -> pct p.lat 90.), "ms");
        ("fresh_ms.p50", latency_ms (fun p -> pct p.fresh 50.), "ms");
        ("fresh_ms.p90", latency_ms (fun p -> pct p.fresh 90.), "ms");
        ("setup_s", Samples.median tot.setup_s, "s");
        ("peak_rss_mb", fi (self_kb + workers_kb) /. 1024., "MiB");
      ]
    else begin
      let speedup =
        match spec.backend with
        | Multi _ -> 0.
        | Local _ ->
            let at1, at2 = if d = 1 then (!plain, !other) else (!other, !plain) in
            ratio (tps at2) (tps at1)
      in
      layer_metrics spec layers
        ~prog:(Workload.compile (Input.workload spec))
        ~overhead:(ratio (tps !traced) (tps !plain))
        ~speedup ~self_kb ~workers_kb
    end
  in
  if trace then begin
    prerr_endline "span self time (ms per traced pass):";
    let n = fi (max 1 (List.length !traced)) in
    List.iter
      (fun (name, (calls, total, self)) ->
        Printf.eprintf "  %-28s %8d calls %12.3f total %12.3f self\n" name calls
          (total *. 1e3 /. n) (self *. 1e3 /. n))
      (Ledger.self_times ());
    Option.iter Ledger.write spans
  end;
  let workers = List.sort_uniq compare (List.concat_map (fun p -> p.workers) all) in
  (* The p99 of the pooled samples, where at least ten lie beyond it. Not
     gated: on a shared 2-vCPU host it moves with the host's load. *)
  let p99 s =
    match Samples.percentile s 99. with
    | v, beyond when beyond >= 10 -> json_float (v *. 1e3)
    | _ -> "null"
  in
  print_string "PERFBENCH_RESULT ";
  print_endline
    (json_obj
       [
         ("workload", json_str spec.name);
         ("correct", if tot.failed = 0 && tot.errors = [] then "true" else "false");
         ("attempted", string_of_int tot.attempted);
         ("failed", string_of_int tot.failed);
         ("errors", "[" ^ String.concat ", " (List.map json_str (List.rev tot.errors)) ^ "]");
         ("metrics", metrics_json metrics);
         ("worker_pids", "[" ^ String.concat ", " (List.map string_of_int workers) ^ "]");
         ( "samples",
           json_obj
             [
               ("passes", string_of_int (List.length !plain));
               ("traced_passes", string_of_int (List.length !traced));
               ("batch_ms", string_of_int tot.batch_s.n);
               ("batch_ms_p99", p99 tot.batch_s);
               ("fresh_ms", string_of_int tot.fresh_s.n);
               ("fresh_ms_p99", p99 tot.fresh_s);
               ("setup_s", string_of_int tot.setup_s.n);
               ( "pass_tuples_per_s",
                 "["
                 ^ String.concat ", "
                     (List.rev_map (fun p -> json_float (pass_tps p)) !plain)
                 ^ "]" );
             ] );
         ( "input",
           json_obj
             [
               ("base_rows", string_of_int input.base_rows);
               ("batches", string_of_int (Array.length input.p_batches));
               ("tuples_per_pass", string_of_int input.tuples);
               ("batch_size", string_of_int spec.batch);
               ("scale", json_float spec.scale);
             ] );
         ( "phases_s",
           json_obj
             [
               ("load_input", json_float (t_loaded -. t_start));
               ("measure", json_float (t_oracle -. t_loaded));
               ("oracle", json_float (t_checked -. t_oracle));
             ] );
         ( "host",
           json_obj
             [
               ("ocaml", json_str Sys.ocaml_version);
               ("recommended_domains", string_of_int (Stdlib.Domain.recommended_domain_count ()));
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

let check_or_fail ok msg =
  Printf.printf "selftest: %s %s\n%!" (if ok then "ok  " else "FAIL") msg;
  ok

let same_multiset a b = Oracle.diff ~want:a ~got:b = None && Oracle.diff ~want:b ~got:a = None

(* The churn generator: once the window is full, the net contents after
   every group of calls equal the base plus the window's inserts, and
   the recorded net contents are the base plus the final window. *)
let selftest_generator () =
  let spec = { (Input.find_spec "churn-local") with scale = 0.5; batch = 50; window = Some 5 } in
  let window = Option.get spec.window in
  let rels, base, inserts = Input.split spec ~seed:7 in
  let n = Array.length inserts in
  let acc = Input.net_of ~rels base [||] in
  let equal_net a b = List.for_all (fun r -> same_multiset (List.assoc r a) (List.assoc r b)) rels in
  let ok = ref (n > 2 * window) in
  Array.iteri
    (fun i calls ->
      List.iter (fun (r, b) -> Gmr.union_into (List.assoc r acc) b) calls;
      if i >= window - 1 then
        let expect = Input.net_of ~rels base (Array.sub inserts (i - window + 1) window) in
        if not (equal_net expect acc) then ok := false)
    (Input.churn ~window inserts);
  let ok =
    check_or_fail !ok
      (Printf.sprintf "churn window: net contents = base + last %d inserts after each of %d batches" window n)
  in
  let x = Input.generate spec ~seed:7 in
  let merged = Array.exists (fun (_, b) -> Gmr.fold (fun _ m a -> a || m < 0.) b false && Gmr.fold (fun _ m a -> a || m > 0.) b false) x.batches in
  let ok = check_or_fail merged "churn window: some calls carry inserts and retractions together" && ok in
  check_or_fail
    (equal_net (Input.net_of ~rels base (Array.sub inserts (n - window) window)) x.net)
    "churn window: recorded net equals base + final window"
  && ok

(* Live records of the maintained maps, leaving out transient maps (the
   per-batch pre-aggregated deltas, which hold the last batch). *)
let live eng =
  let transient =
    List.filter_map
      (fun (m : Prog.map_decl) -> if m.mkind = Prog.Transient then Some m.mname else None)
      (Engine.prog eng).maps
  in
  List.fold_left
    (fun a (name, (s : Pool.stats)) -> if List.mem name transient then a else a + s.s_live)
    0 (Engine.storage_stats eng)

(* Z-set invariant from outside: after the stream, retracting the whole
   net contents leaves every view empty and the maps' live records at
   the level of an engine that loaded the empty database (lifted scalar
   aggregates such as Q22's hold one tuple even then). The oracle holds
   before the retraction. *)
let selftest_retract name =
  let spec = { (Input.find_spec name) with scale = 0.5 } in
  let x = Input.generate spec ~seed:11 in
  let w = Input.workload spec in
  let with_engine f =
    let eng = Engine.create ~config:(engine_config spec ~domains:(spec_domains spec)) w in
    Fun.protect ~finally:(fun () -> Engine.shutdown eng) (fun () -> f eng)
  in
  let live0 =
    with_engine (fun eng ->
        Engine.load eng (List.map (fun (r, _) -> (r, Gmr.create ())) x.net);
        live eng)
  in
  with_engine (fun eng ->
      Engine.load eng x.base;
      Array.iter (fun (rel, b) -> ignore (Engine.apply_batch eng ~rel b)) x.batches;
      let views () = List.map (fun v -> (v, Engine.query eng v)) (Input.view_names spec) in
      let errs = Oracle.check ~want:(Oracle.expected w x.net) (views ()) in
      List.iter print_endline errs;
      let ok1 = check_or_fail (errs = []) (name ^ ": views equal the oracle after the stream") in
      List.iter
        (fun (rel, b) -> if Gmr.cardinal b > 0 then ignore (Engine.apply_batch eng ~rel (Input.negate b)))
        x.net;
      let nonempty = List.filter (fun (_, g) -> Gmr.cardinal g > 0) (views ()) in
      List.iter
        (fun (v, g) -> Format.printf "  %s still holds %d tuples: %a@." v (Gmr.cardinal g) Gmr.pp g)
        nonempty;
      let ok2 = check_or_fail (nonempty = []) (name ^ ": retracting the net contents empties every view") in
      let live1 = live eng in
      let ok3 =
        check_or_fail (live1 = live0)
          (Printf.sprintf "%s: live map records back to the empty-database level (%d -> %d)" name live0
             live1)
      in
      ok1 && ok2 && ok3)

(* The oracle must reject a perturbed view and accept
   summation-order-sized differences. *)
let selftest_oracle () =
  let spec = { (Input.find_spec "churn-local") with scale = 0.5 } in
  let x = Input.generate spec ~seed:3 in
  let w = Input.workload spec in
  let want = Oracle.expected w x.net in
  let name, view = List.find (fun (_, g) -> Gmr.cardinal g > 0) want in
  let tup, m = List.hd (Gmr.to_sorted_list view) in
  let variant f =
    let g = Gmr.copy view in
    f g;
    Oracle.check ~want ((name, g) :: List.remove_assoc name want)
  in
  let rejects what f = check_or_fail (variant f <> []) ("oracle rejects " ^ what) in
  let a = check_or_fail (variant (fun _ -> ()) = []) "oracle accepts the exact view" in
  let b =
    check_or_fail
      (variant (fun g -> Gmr.iter (fun t v -> Gmr.set g t (v *. (1. +. 1e-13))) view) = [])
      "oracle accepts a 1e-13 relative difference"
  in
  let c = rejects "a 1e-6 relative change of one entry" (fun g -> Gmr.set g tup (m *. (1. +. 1e-6))) in
  let d = rejects "a missing key" (fun g -> Gmr.set g tup 0.) in
  let e = rejects "an extra key" (fun g -> Gmr.add g (Array.map (fun _ -> Value.Int (-1)) tup) 1.) in
  a && b && c && d && e

let cmd_selftest () =
  let results =
    [
      selftest_generator ();
      selftest_oracle ();
      selftest_retract "churn-local";
      selftest_retract "shuffle-mp2";
    ]
  in
  if List.for_all Fun.id results then print_endline "selftest: all passed"
  else begin
    print_endline "selftest: FAILED";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: tl when starts_with "--" k -> opts ((k, v) :: acc) tl
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> ("", []) in
  let o = opts [] rest in
  let get k =
    match List.assoc_opt k o with Some v -> v | None -> failwith ("missing " ^ k)
  in
  match cmd with
  | "gen" ->
      cmd_gen ~workload:(get "--workload") ~seed:(int_of_string (get "--seed")) ~out:(get "--out")
  | "run" ->
      cmd_run ~workload:(get "--workload") ~input:(get "--input")
        ~seconds:(float_of_string (get "--seconds"))
        ~trace:(get "--trace" = "1") ~spans:(List.assoc_opt "--spans" o)
  | "cpus" -> print_int (run_cpus (Input.find_spec (get "--workload")) ~trace:(get "--trace" = "1"))
  | "selftest" -> cmd_selftest ()
  | _ ->
      prerr_endline "usage: perfbench.exe (gen|cpus|run|selftest) [--option value]...";
      exit 2
