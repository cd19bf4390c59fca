module Iset = Trace.Epoch.Iset

type mode = Programmer | Performance

type annots = { co_x : Iset.t; co_s : Iset.t; ci : Iset.t }

type set = Co_x | Co_s | Ci

type term = { set : set; label : string; addrs : Iset.t }

let empty = { co_x = Iset.empty; co_s = Iset.empty; ci = Iset.empty }

let union a b =
  {
    co_x = Iset.union a.co_x b.co_x;
    co_s = Iset.union a.co_s b.co_s;
    ci = Iset.union a.ci b.ci;
  }

let terms mode (info : Epoch_info.t) ~epoch ~node =
  let cur = Epoch_info.sets_at info ~epoch ~node in
  let prev = Epoch_info.sets_at info ~epoch:(epoch - 1) ~node in
  let next = Epoch_info.sets_at info ~epoch:(epoch + 1) ~node in
  let d = info.Epoch_info.drfs.(epoch) in
  let s_cur = Epoch_info.s_of cur and s_next = Epoch_info.s_of next in
  let term set label addrs = { set; label; addrs } in
  match mode with
  | Programmer ->
      [
        term Co_x "locations newly written this epoch"
          (Drfs.filter_not_drfs d
             (Iset.diff cur.Epoch_info.sw prev.Epoch_info.sw));
        term Co_x "racy or falsely shared writes"
          (Drfs.filter_drfs d cur.Epoch_info.sw);
        term Co_s "locations newly read this epoch"
          (Drfs.filter_not_fs d
             (Iset.diff cur.Epoch_info.sr prev.Epoch_info.sr));
        term Co_s "falsely shared reads" (Drfs.filter_fs d cur.Epoch_info.sr);
        term Ci "locations unused next epoch"
          (Drfs.filter_not_drfs d (Iset.diff s_cur s_next));
        term Ci "racy or falsely shared locations" (Drfs.filter_drfs d s_cur);
      ]
  | Performance ->
      (* "Finished with the location" means no use at all by this node in
         the next epoch: flushing data the node is about to read would
         turn its own hits into misses. *)
      let sw_next_other = Epoch_info.sw_others info ~epoch:(epoch + 1) ~node in
      [
        term Co_x "read-before-write faults"
          (Drfs.filter_not_drfs d
             (Iset.diff cur.Epoch_info.wf prev.Epoch_info.sw));
        term Co_x "racy or falsely shared faults"
          (Drfs.filter_drfs d cur.Epoch_info.wf);
        term Ci "written here, done with it"
          (Drfs.filter_not_drfs d (Iset.diff cur.Epoch_info.sw s_next));
        term Ci "hand-off to next epoch's writer"
          (Drfs.filter_not_drfs d
             (Iset.diff (Iset.inter cur.Epoch_info.sr sw_next_other) s_next));
        term Ci "racy or falsely shared locations" (Drfs.filter_drfs d s_cur);
      ]

let for_epoch mode info ~epoch ~node =
  List.fold_left
    (fun a t ->
      match t.set with
      | Co_x -> { a with co_x = Iset.union a.co_x t.addrs }
      | Co_s -> { a with co_s = Iset.union a.co_s t.addrs }
      | Ci -> { a with ci = Iset.union a.ci t.addrs })
    empty
    (terms mode info ~epoch ~node)

let all mode info =
  Array.init (Epoch_info.n_epochs info) (fun epoch ->
      Array.init info.Epoch_info.nodes (fun node ->
          for_epoch mode info ~epoch ~node))
