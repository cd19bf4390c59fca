module Iset = Trace.Epoch.Iset

type mode = Programmer | Performance

type annots = { co_x : Iset.t; co_s : Iset.t; ci : Iset.t }

let empty = { co_x = Iset.empty; co_s = Iset.empty; ci = Iset.empty }

let union a b =
  {
    co_x = Iset.union a.co_x b.co_x;
    co_s = Iset.union a.co_s b.co_s;
    ci = Iset.union a.ci b.ci;
  }

let for_epoch mode (info : Epoch_info.t) ~epoch ~node =
  let cur = Epoch_info.sets_at info ~epoch ~node in
  let prev = Epoch_info.sets_at info ~epoch:(epoch - 1) ~node in
  let next = Epoch_info.sets_at info ~epoch:(epoch + 1) ~node in
  let d = info.Epoch_info.drfs.(epoch) in
  match mode with
  | Programmer ->
      let s_cur = Epoch_info.s_of cur in
      let s_next = Epoch_info.s_of next in
      {
        co_x =
          Iset.union
            (Drfs.filter_not_drfs d (Iset.diff cur.Epoch_info.sw prev.Epoch_info.sw))
            (Drfs.filter_drfs d cur.Epoch_info.sw);
        co_s =
          Iset.union
            (Drfs.filter_not_fs d (Iset.diff cur.Epoch_info.sr prev.Epoch_info.sr))
            (Drfs.filter_fs d cur.Epoch_info.sr);
        ci =
          Iset.union
            (Drfs.filter_not_drfs d (Iset.diff s_cur s_next))
            (Drfs.filter_drfs d s_cur);
      }
  | Performance ->
      let s_cur = Epoch_info.s_of cur in
      let s_next_self = Epoch_info.s_of next in
      let sw_next_other = Epoch_info.sw_others info ~epoch:(epoch + 1) ~node in
      (* "Finished with the location" means no use at all by this node in
         the next epoch: flushing data the node is about to read would
         turn its own hits into misses. *)
      {
        co_x =
          Iset.union
            (Drfs.filter_not_drfs d (Iset.diff cur.Epoch_info.wf prev.Epoch_info.sw))
            (Drfs.filter_drfs d cur.Epoch_info.wf);
        co_s = Iset.empty;
        ci =
          Iset.union
            (Iset.union
               (Drfs.filter_not_drfs d
                  (Iset.diff cur.Epoch_info.sw s_next_self))
               (Drfs.filter_not_drfs d
                  (Iset.diff
                     (Iset.inter cur.Epoch_info.sr sw_next_other)
                     s_next_self)))
            (Drfs.filter_drfs d s_cur);
      }

let all mode info =
  Array.init (Epoch_info.n_epochs info) (fun epoch ->
      Array.init info.Epoch_info.nodes (fun node ->
          for_epoch mode info ~epoch ~node))
