open Divm_storage
open Divm_compiler
open Divm_dist
module Runtime = Divm_runtime.Runtime
module Cluster = Divm_cluster.Cluster
module Node = Divm_node.Node
module Workload = Divm_workload.Workload

type backend =
  | Local
  | Simulated of Cluster.config
  | Multiprocess of Node.config

type config = {
  backend : backend;
  domains : int option;
  batch_size : int;
  opt_level : int;
  preaggregate : bool;
  auto_index : bool;
  columnar : bool;
}

let config ?(backend = Local) ?domains ?(batch_size = 1000) ?(opt_level = 3)
    ?(preaggregate = true) ?(auto_index = true) ?(columnar = true) () =
  { backend; domains; batch_size; opt_level; preaggregate; auto_index; columnar }

let default_config = config ()

type report = {
  relation : string;
  tuples : int;
  ops : int;
  wall : float;
  modeled : float option;
  stages : int;
  round_trips : int;
  bytes_shuffled : int;
  wire_bytes : int;
  stage_stats : Node.stage_stat list;
}

type impl =
  | ILocal of Runtime.t
  | ISim of Cluster.t
  | IProc of Node.t

type t = {
  cfg : config;
  w : Workload.t;
  eprog : Prog.t;
  edprog : Dprog.t option;
  impl : impl;
}

let create ?(config = default_config) (w : Workload.t) =
  let prog = Workload.compile ~preaggregate:config.preaggregate w in
  match config.backend with
  | Local ->
      let rt =
        Runtime.create ~auto_index:config.auto_index ~columnar:config.columnar
          ?domains:config.domains prog
      in
      { cfg = config; w; eprog = prog; edprog = None; impl = ILocal rt }
  | Simulated cc ->
      let dp = Workload.distribute ~level:config.opt_level w prog in
      let c = Cluster.create ~config:cc ?domains:config.domains dp in
      { cfg = config; w; eprog = prog; edprog = Some dp; impl = ISim c }
  | Multiprocess nc ->
      let dp = Workload.distribute ~level:config.opt_level w prog in
      let n = Node.create ~config:nc dp in
      { cfg = config; w; eprog = prog; edprog = Some dp; impl = IProc n }

let conf t = t.cfg
let workload t = t.w
let prog t = t.eprog
let dprog t = t.edprog

let backend_name t =
  match t.impl with
  | ILocal _ -> "local"
  | ISim _ -> "simulated"
  | IProc _ -> "multiprocess"

let domains t =
  match t.impl with ILocal rt -> Runtime.domains rt | ISim _ | IProc _ -> 1

let apply_batch t ~rel batch =
  match t.impl with
  | ILocal rt ->
      let r = Runtime.apply_batch rt ~rel batch in
      {
        relation = rel;
        tuples = r.Runtime.tuples;
        ops = r.Runtime.ops;
        wall = r.Runtime.wall;
        modeled = None;
        stages = 0;
        round_trips = 0;
        bytes_shuffled = 0;
        wire_bytes = 0;
        stage_stats = [];
      }
  | ISim c ->
      let t0 = Unix.gettimeofday () in
      let m = Cluster.apply_batch c ~rel batch in
      {
        relation = rel;
        tuples = Gmr.cardinal batch;
        ops = m.Cluster.driver_ops + m.Cluster.max_worker_ops;
        wall = Unix.gettimeofday () -. t0;
        modeled = Some m.Cluster.latency;
        stages = m.Cluster.stages;
        round_trips = 0;
        bytes_shuffled = m.Cluster.bytes_shuffled;
        wire_bytes = 0;
        stage_stats = [];
      }
  | IProc n ->
      let m = Node.apply_batch n ~rel batch in
      {
        relation = rel;
        tuples = Gmr.cardinal batch;
        ops = m.Node.driver_ops + m.Node.max_worker_ops;
        wall = m.Node.wall;
        modeled = Some m.Node.latency;
        stages = m.Node.stages;
        round_trips = m.Node.round_trips;
        bytes_shuffled = m.Node.bytes_shuffled;
        wire_bytes = m.Node.wire_bytes;
        stage_stats = m.Node.stage_stats;
      }

let apply_single t ~rel tup m =
  match t.impl with
  | ILocal rt ->
      let r = Runtime.apply_single rt ~rel tup m in
      {
        relation = rel;
        tuples = r.Runtime.tuples;
        ops = r.Runtime.ops;
        wall = r.Runtime.wall;
        modeled = None;
        stages = 0;
        round_trips = 0;
        bytes_shuffled = 0;
        wire_bytes = 0;
        stage_stats = [];
      }
  | ISim _ | IProc _ ->
      let b = Gmr.create ~size:1 () in
      Gmr.add b tup m;
      apply_batch t ~rel b

let load t entries =
  match t.impl with
  | ILocal rt -> Runtime.load rt entries
  | ISim c ->
      List.iter (fun (rel, b) -> ignore (Cluster.apply_batch c ~rel b)) entries
  | IProc n ->
      List.iter (fun (rel, b) -> ignore (Node.apply_batch n ~rel b)) entries

let query t qname =
  match t.impl with
  | ILocal rt -> Runtime.result rt qname
  | ISim c -> Cluster.result c qname
  | IProc n -> Node.result n qname

let map_contents t name =
  match t.impl with
  | ILocal rt -> Runtime.map_contents rt name
  | ISim c -> Cluster.map_contents c name
  | IProc n -> Node.map_contents n name

let storage_stats t =
  match t.impl with
  | ILocal rt -> Runtime.storage_stats rt
  | ISim c -> Cluster.storage_stats c
  | IProc _ -> []

let shutdown t = match t.impl with IProc n -> Node.shutdown n | _ -> ()

(* Reconciliation artifact: per stage name, how the predictor did against
   the measurement, summed over the batches; per trigger relation, the
   whole batches with their stage and round-trip counts. Distributed stages also
   aggregate the workers' self-measured walls, attributing the slowest
   worker and its straggler ratio (max/median over the summed walls);
   mesh transfers additionally aggregate per-link wire bytes. *)
type srow = {
  mutable rn : int;
  mutable rp : float;
  mutable rm : float;
  mutable rb : int;
  mutable rwb : int;
  mutable rpwb : int;
  mutable rws : float array;
  rlinks : (int * int, int ref) Hashtbl.t;
  mutable rstages : int;
  mutable rrt : int;
}

let reconcile_json reports =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let row_of name =
    match Hashtbl.find_opt tbl name with
    | Some row -> row
    | None ->
        let row =
          {
            rn = 0;
            rp = 0.;
            rm = 0.;
            rb = 0;
            rwb = 0;
            rpwb = 0;
            rws = [||];
            rlinks = Hashtbl.create 4;
            rstages = 0;
            rrt = 0;
          }
        in
        Hashtbl.add tbl name row;
        order := name :: !order;
        row
  in
  List.iter
    (fun r ->
      (match r.modeled with
      | Some modeled ->
          let row = row_of ("batch:" ^ r.relation) in
          row.rn <- row.rn + 1;
          row.rp <- row.rp +. modeled;
          row.rm <- row.rm +. r.wall;
          row.rb <- row.rb + r.bytes_shuffled;
          row.rwb <- row.rwb + r.wire_bytes;
          row.rstages <- row.rstages + r.stages;
          row.rrt <- row.rrt + r.round_trips
      | None -> ());
      List.iter
        (fun (s : Node.stage_stat) ->
          let row = row_of s.Node.sname in
          (if Array.length s.Node.swalls > 0 then
             row.rws <-
               (if Array.length row.rws = Array.length s.Node.swalls then
                  Array.mapi (fun i w -> w +. s.Node.swalls.(i)) row.rws
                else Array.copy s.Node.swalls));
          List.iter
            (fun (src, dst, b) ->
              match Hashtbl.find_opt row.rlinks (src, dst) with
              | Some r -> r := !r + b
              | None -> Hashtbl.add row.rlinks (src, dst) (ref b))
            s.Node.slinks;
          row.rn <- row.rn + 1;
          row.rp <- row.rp +. s.Node.predicted;
          row.rm <- row.rm +. s.Node.measured;
          row.rb <- row.rb + s.Node.sbytes;
          row.rwb <- row.rwb + s.Node.swire;
          row.rpwb <- row.rpwb + s.Node.spwire)
        r.stage_stats)
    reports;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i name ->
      let row = Hashtbl.find tbl name in
      let n, p, m, b, wb, ws =
        (row.rn, row.rp, row.rm, row.rb, row.rwb, row.rws)
      in
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"name\": %S, \"batches\": %d, \"predicted_ms\": %.6f, \
            \"measured_ms\": %.6f, \"bytes\": %d, \"wire_bytes\": %d"
           name n (p *. 1e3) (m *. 1e3) b wb);
      if row.rpwb > 0 then
        Buffer.add_string buf
          (Printf.sprintf ", \"predicted_wire_bytes\": %d" row.rpwb);
      if String.starts_with ~prefix:"batch:" name then
        Buffer.add_string buf
          (Printf.sprintf ", \"stages\": %d, \"round_trips\": %d" row.rstages
             row.rrt);
      (if Hashtbl.length row.rlinks > 0 then begin
         let links =
           List.sort compare
             (Hashtbl.fold
                (fun (src, dst) r acc -> (src, dst, !r) :: acc)
                row.rlinks [])
         in
         Buffer.add_string buf ", \"mesh_links\": [";
         List.iteri
           (fun j (src, dst, lb) ->
             if j > 0 then Buffer.add_string buf ", ";
             Buffer.add_string buf
               (Printf.sprintf "{\"src\": %d, \"dst\": %d, \"bytes\": %d}" src
                  dst lb))
           links;
         Buffer.add_string buf "]"
       end);
      let w = Array.length ws in
      if w > 0 then begin
        Buffer.add_string buf ", \"worker_walls_ms\": [";
        Array.iteri
          (fun j x ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf "%.6f" (x *. 1e3)))
          ws;
        Buffer.add_string buf "]";
        let slowest = ref 0 in
        Array.iteri (fun j x -> if x > ws.(!slowest) then slowest := j) ws;
        let sorted = Array.copy ws in
        Array.sort compare sorted;
        let median =
          if w land 1 = 1 then sorted.(w / 2)
          else (sorted.((w / 2) - 1) +. sorted.(w / 2)) /. 2.
        in
        Buffer.add_string buf
          (Printf.sprintf ", \"slowest_worker\": %d" !slowest);
        if median > 0. then
          Buffer.add_string buf
            (Printf.sprintf ", \"straggler_ratio\": %.4f"
               (sorted.(w - 1) /. median))
      end;
      Buffer.add_string buf "}")
    (List.rev !order);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
