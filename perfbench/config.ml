(* The numbers the benchmark runs with, read from perfbench/config.json.
   That file is the single source of these values and records, beside
   them, the rationale and the per-layer table; pb.exe runs from the
   repository root, where the relative path resolves. *)

module J = Service.Json

let file = Filename.concat "perfbench" "config.json"
let doc = J.of_string (In_channel.with_open_bin file In_channel.input_all)

let get conv path =
  match conv (List.fold_left (fun j k -> J.member k j) doc path) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: %s missing or mistyped" file (String.concat "." path))

let int path = get J.to_int_opt path

let list conv path =
  get
    (function
      | J.List l ->
          List.fold_right
            (fun x acc -> Option.bind acc (fun a -> Option.map (fun v -> v :: a) (conv x)))
            l (Some [])
      | _ -> None)
    path

let kernel_nominal_ns = int [ "reference_kernel"; "nominal_ns" ]
let setup_reps = int [ "setup"; "repetitions" ]
let programs = list J.to_string_opt [ "programs" ]

(* The cache geometry every workload simulates, at [nodes] nodes. *)
let cache_kb = int [ "machine"; "cache_kb" ]
let assoc = int [ "machine"; "assoc" ]
let block_bytes = int [ "machine"; "block_bytes" ]

let machine ~nodes =
  {
    Wwt.Machine.default with
    Wwt.Machine.nodes;
    cache_bytes = cache_kb * 1024;
    assoc;
    block_size = block_bytes;
  }

let workload name path = [ "workloads"; name ] @ path
let annotate_nodes = list J.to_int_opt (workload "annotate-cold" [ "nodes" ])
let matrix_nodes = int (workload "simulate-matrix" [ "nodes" ])
let sx path = int (workload "service-mix" path)
let service_nodes = sx [ "nodes" ]
let rate_per_s = sx [ "rate_per_s" ]
let max_connections = sx [ "max_connections" ]
let listeners = sx [ "cachierd"; "listeners" ]
let workers = sx [ "cachierd"; "workers" ]
let block = sx [ "classes"; "block" ]
let hits_per_block = sx [ "classes"; "hit" ]
let edits_per_block = sx [ "classes"; "edit" ]
let par_every = sx [ "fresh"; "par_every" ]
let par_nodes = sx [ "fresh"; "par_nodes" ]

(* The programs service-mix edits; the batch workloads' edit_p50_ms
   takes the same programs. *)
let edit_bases = list J.to_string_opt (workload "service-mix" [ "edit"; "bases" ])
